package repro.perfbench

import org.apache.spark.sql.DataFrame
import repro.PaperExample
import repro.census.{CensusData, CensusSchema, ConstraintGen}
import repro.core.model._

class ReplaySpec extends BenchSpark {

  /** Runs a traced solve and its replays; returns them with any mismatch. */
  private def replayed(r1: DataFrame, r2: DataFrame, schema: DbSchema,
                       ccs: Seq[CardinalityConstraint], dcs: Seq[DenialConstraint]) = {
    val tracer = new Tracer(spark)
    val ts = Traced.solve(tracer, 1, r1, r2, schema, ccs, dcs)
    val check = new OutputCheck(r1, r2, schema, dcs, ccs).check(ts.r1Hat, ts.p2.r2Hat, ts.vjoin)
    assert(check.ok, check.failures)
    val (rp1, rp2, problems) = Traced.replay(tracer, 1, ts, r1, r2, schema, ccs, dcs, check.nFreshR2)
    (ts, rp1, rp2, problems, tracer)
  }

  test("Phase I and Phase II replays reproduce the running example's run") {
    val r1 = PaperExample.r1(spark)
    val (ts, rp1, rp2, problems, tracer) =
      replayed(r1, PaperExample.r2(spark), PaperExample.schema, PaperExample.ccs, PaperExample.dcs)
    assert(problems.isEmpty, problems)
    val st = ts.p1.stats
    assert(rp1.split.s1.size == st.nS1 && rp1.split.s2.size == st.nS2)
    assert(st.nS2 > 0, "the running example has intersecting CCs, so the ILP runs")
    assert(rp1.ilp.map(_.nVars).contains(st.ilpVars) && rp1.ilp.map(_.nRows).contains(st.ilpRows))
    assert(rp2.partitions.map(_.vertices).sum == r1.count())
    assert(rp2.fk == ts.r1Hat.select("pid", "hid").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap)
    Seq("solve", "phase1.run", "phase2.run", "phase1.binning", "phase1.combos")
      .foreach(n => assert(tracer.get(1, n).seconds > 0, n))
  }

  test("replays reproduce a small Census run with intersecting CCs and cliques") {
    val (persons, housing) = CensusData.generate(spark, scale = 0.05, nAreas = 4)
    val ccs = ConstraintGen.sccBad(persons.join(housing, Seq("hid")), nAreas = 4)
    val (ts, _, rp2, problems, _) =
      replayed(CensusData.blind(persons), housing, CensusSchema.schema, ccs, ConstraintGen.sdcAll)
    assert(problems.isEmpty, problems)
    assert(ts.p1.stats.ilpVars > 0)
    assert(rp2.valid.size > 1 && rp2.partitions.map(_.edges).sum > 0)
  }
}
