package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, when}
import repro.PaperExample
import repro.core.{CExtension, CExtensionResult}
import repro.eval.ErrorMeasures

class OutputCheckSpec extends BenchSpark {
  import PaperExample.{ccs, dcs, schema}

  private lazy val r1 = PaperExample.r1(spark)
  private lazy val r2 = PaperExample.r2(spark)
  private lazy val res: CExtensionResult = CExtension.run(r1, r2, schema, ccs, dcs)
  private lazy val checker = new OutputCheck(r1, r2, schema, dcs, ccs)
  private lazy val fkOf: Map[Long, Long] =
    res.r1Hat.select("pid", "hid").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
  private lazy val areaOf: Map[Long, String] =
    res.r2Hat.select("hid", "Area").collect().map(r => r.getLong(0) -> r.getString(1)).toMap

  private def check(r1Hat: DataFrame): CheckReport =
    checker.check(r1Hat, res.r2Hat, res.vjoin)

  /** R̂1 with the FK of `pid` replaced by `fk`. */
  private def moved(pid: Long, fk: Long): DataFrame =
    res.r1Hat.withColumn("hid", when(col("pid") === pid, lit(fk)).otherwise(col("hid")))

  test("the solver's output on the running example passes the check") {
    val c = check(res.r1Hat)
    assert(c.ok, c.failures)
    assert(c.dcViolating == 0)
    assert(c.ccCounts == ccs.map(_.target))
    assert(c.nFreshR2 == res.r2Hat.count() - r2.count())
  }

  test("an FK moved to a house with other B values is rejected") {
    val pid = 6L
    val to = areaOf.keys.toSeq.sorted.find(h => areaOf(h) != areaOf(fkOf(pid))).get
    val c = check(moved(pid, to))
    assert(c.failures.exists(_.contains("V_Join gave combo")), c.failures)
  }

  test("an FK pointing nowhere is rejected") {
    val c = check(moved(6L, 999L))
    assert(c.failures.exists(_.contains("not in R̂2")), c.failures)
  }

  test("a second owner in a household is a DC violation, as ErrorMeasures also finds") {
    val owners = r1.filter(col("Rel") === "Owner").select("pid").collect().map(_.getLong(0)).sorted
    val (o1, o2) = (for (a <- owners; b <- owners
                         if a < b && fkOf(a) != fkOf(b) && areaOf(fkOf(a)) == areaOf(fkOf(b)))
                    yield (a, b)).head
    val corrupted = moved(o2, fkOf(o1))
    val c = check(corrupted)
    assert(c.failures.isEmpty, c.failures)
    assert(c.dcViolating >= 2)
    assert(ErrorMeasures.dcViolationFraction(corrupted, schema, dcs) == c.dcErr)
  }
}
