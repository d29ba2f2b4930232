package repro.core.phase2

import org.apache.spark.sql.{DataFrame, Dataset, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}
import repro.core.model._
import repro.core.phase1.{Binning, ComboSpace}
import scala.jdk.CollectionConverters._

/** One output row of the distributed coloring: either a FK assignment for an
  * R1 tuple (`kind = 0`) or a new housing tuple to append to R̂2 (`kind = 1`).
  */
final case class FkOut(kind: Int, k1: Long, hid: Long, combo: Int)

/** Result of Phase II. `r2Hat` is `r2` plus any fresh-key tuples created for
  * skipped or invalid vertices (Proposition 5.5).
  */
final case class Phase2Result(r1Hat: DataFrame, r2Hat: DataFrame)

/** Algorithm 4: complete `R1.FK` from the combo-annotated V_Join.
  *
  * The §5.2 optimization — one conflict hypergraph per distinct B-combo,
  * since candidate keys are disjoint across combos — maps directly to
  * `groupByKey(comboId).flatMapGroups`: each Spark task colors one
  * partition with [[ConflictColoring]], which tests the DCs directly instead
  * of materialising the hypergraph (this is also the parallelization
  * suggested in §A.3). Invalid tuples (no B values from Phase I) are routed
  * to a second "lane" keyed by the least-CC-impact combo of their bin and
  * colored with fresh keys only, which is trivially DC-safe w.r.t.
  * previously colored tuples and realizes `solveInvalidTuples`.
  *
  * The returned R̂1 is cached and materialised; R̂2's fresh houses are
  * local rows, so neither recomputes the colouring.
  */
object FkAssigner {

  def run(vjoin: DataFrame, r1: DataFrame, r2: DataFrame, schema: DbSchema,
          dcs: Seq[DenialConstraint], ccs: Seq[CardinalityConstraint],
          binning: Binning, comboSpace: ComboSpace): Phase2Result = {
    val spark = vjoin.sparkSession
    import spark.implicits._

    val k2 = schema.r2.key
    // Candidate FK values per combo (housing keys with those B values).
    val candidates: Map[Int, IndexedSeq[Long]] =
      comboSpace.withComboId(r2).select(col("__combo"), col(k2).cast("long"))
        .collect()
        .groupBy(_.getInt(0))
        .map { case (c, rows) => c -> rows.map(_.getLong(1)).sorted.toIndexedSeq }
    val maxHid = candidates.valuesIterator.flatten.max

    // Least-CC-impact combo per bin, for solveInvalidTuples.
    val r1Conds = ccs.map(cc => cc -> cc.r1Cond(schema))
    val comboTouch: Map[String, Set[Int]] = ccs.map { cc =>
      val r2c = cc.r2Cond(schema)
      cc.id -> comboSpace.combos.filter(_.matchesR2Cond(r2c)).map(_.id).toSet
    }.toMap
    val bestComboForBin: Map[Int, Int] = binning.bins.map { b =>
      val touching = r1Conds.collect { case (cc, c1) if b.matchesR1Cond(c1) => cc }
      val best = comboSpace.combos.minBy(c =>
        (touching.count(cc => comboTouch(cc.id)(c.id)), c.id))
      b.id -> best.id
    }.toMap

    val catAttrs = schema.r1.catAttrs
    val numAttrs = schema.r1.numAttrs
    val coloring = ConflictColoring(dcs, schema.r1)

    // Group key: combo*2 for valid tuples, bestCombo*2+1 for invalid ones.
    val bestCombo = typedLit(bestComboForBin)
    val keyed: Dataset[(Long, Long, Seq[String], Seq[Int])] = vjoin
      .withColumn("__gkey",
        when(col("__combo") >= 0, col("__combo").cast("long") * 2)
          .otherwise(coalesce(bestCombo(col("__bin")), lit(0)).cast("long") * 2 + 1))
      .select(col("__gkey"), col(schema.r1.key).cast("long"),
              array(catAttrs.map(c => col(c).cast("string")): _*),
              array(numAttrs.map(c => col(c).cast("int")): _*))
      .as[(Long, Long, Seq[String], Seq[Int])]

    val outs: Dataset[FkOut] = keyed
      .groupByKey(_._1)
      .flatMapGroups { (gkey: Long, it: Iterator[(Long, Long, Seq[String], Seq[Int])]) =>
        val combo = (gkey / 2).toInt
        val invalidLane = gkey % 2 == 1
        val rows = it.toIndexedSeq.sortBy(_._2)
        val palette =
          if (invalidLane) IndexedSeq.empty[Long]
          else candidates.getOrElse(combo, IndexedSeq.empty)
        val freshBase = maxHid + ((combo.toLong + 2) << 33) +
          (if (invalidLane) 1L << 32 else 0L)
        val colors = coloring.color(rows.map(_._3), rows.map(_._4), palette, freshBase).colors

        val assigns = rows.indices.map(i => FkOut(0, rows(i)._2, colors(i), combo))
        val newHousing = colors.filter(_ > maxHid).distinct.map(h => FkOut(1, -1L, h, combo))
        (assigns ++ newHousing).iterator
      }

    // Cached until R̂1 is materialised: the fresh houses are collected from
    // it first, so the colouring runs once.
    val outsDf = outs.toDF().cache()

    val freshRows = outsDf.filter(col("kind") === 1).select("hid", "combo").as[(Long, Int)]
      .collect().sorted.toSeq
      .map { case (hid, c) => Row.fromSeq(hid +: schema.r2.attrs.map(comboSpace.byId(c).values)) }
    val newHousingDf = spark.createDataFrame(freshRows.asJava,
      StructType(StructField(k2, LongType) +: schema.r2.attrs.map(StructField(_, StringType))))
    val r2Hat = r2.select(col(k2) +: schema.r2.attrs.map(col): _*).unionByName(newHousingDf)

    val assignDf = outsDf.filter(col("kind") === 0)
      .select(col("k1").as(schema.r1.key), col("hid").as(schema.r1.fk))
    val r1Hat = r1.drop(schema.r1.fk).join(assignDf, Seq(schema.r1.key)).cache()
    r1Hat.count()
    outsDf.unpersist()

    Phase2Result(r1Hat, r2Hat)
  }
}
