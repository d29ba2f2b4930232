package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, max}
import repro.core.ccrel.HasseDiagram
import repro.core.model._
import repro.core.phase1._
import repro.core.phase2.{ConflictGraph, ListColoring}

/** Replays of the layers `HybridCompleter.run` and `FkAssigner.run` call
  * internally, made through their public functions on the same inputs, so
  * each inner layer gets its own counts, and a time where the run records
  * none.
  */
object Replay {

  /** Phase I inner layers, in the order `HybridCompleter.run` calls them. */
  final case class Phase1(binning: Binning, comboSpace: ComboSpace,
                          split: HasseDiagram.Split, hasse: HasseCompleter.Result,
                          ilp: Option[IlpCompleter.Result])

  def phase1(tracer: Tracer, solve: Int, r1: DataFrame, r2: DataFrame, schema: DbSchema,
             ccs: Seq[CardinalityConstraint]): Phase1 = {
    def span[T](name: String)(body: => T): T = tracer.span(solve, name, "phase1.replay")(body)
    val binning = span("phase1.binning")(Binning.build(r1.drop(schema.r1.fk), schema, ccs))
    val comboSpace = span("phase1.combos")(ComboSpace.build(r2, schema))
    // The run times these three itself (`Phase1Stats`); they are replayed
    // for their counts only.
    val split = HasseDiagram.split(ccs, schema)
    val pool = new BinPool(binning.bins)
    val hasse = HasseCompleter.plan(split.forest, ccs, schema, binning, comboSpace, pool)
    val ilp =
      if (split.s2.isEmpty) None
      else Some(IlpCompleter.plan(split.s2, schema, binning, comboSpace, pool,
                                  withMarginals = true, dropFreePairs = true))
    Phase1(binning, comboSpace, split, hasse, ilp)
  }

  /** Per combo partition of Phase II: its size, conflict-graph work and
    * colouring outcome. `invalidLane` marks the partition of tuples Phase I
    * left without a combo.
    */
  final case class Partition(combo: Int, invalidLane: Boolean, vertices: Int, edges: Int,
                             skipped: Int, freshKeys: Int, graphS: Double, colourS: Double)

  /** @param fk the FK the replay's colouring gives each R1 key */
  final case class Phase2(partitions: Seq[Partition], fk: Map[Long, Long]) {
    def valid: Seq[Partition] = partitions.filterNot(_.invalidLane)
  }

  /** Rebuilds every partition of `FkAssigner.run` from the completed V_Join
    * and colours it on one thread with its real candidate palette: the same
    * grouping (combo, or the bin's least-CC-impact combo for invalid
    * tuples), tuple order, palette and fresh-key scheme.
    */
  def phase2(vjoin: DataFrame, r2: DataFrame, schema: DbSchema,
             dcs: Seq[DenialConstraint], ccs: Seq[CardinalityConstraint],
             binning: Binning, comboSpace: ComboSpace): Phase2 = {
    val s1 = schema.r1
    val k2 = schema.r2.key
    val candidates: Map[Int, IndexedSeq[Long]] =
      comboSpace.withComboId(r2).select(col("__combo"), col(k2).cast("long")).collect()
        .groupBy(_.getInt(0))
        .map { case (c, rows) => c -> rows.map(_.getLong(1)).sorted.toIndexedSeq }
    val maxHid = r2.agg(max(col(k2)).cast("long")).head().getLong(0)

    val comboTouch: Map[String, Set[Int]] = ccs.map { cc =>
      val r2c = cc.r2Cond(schema)
      cc.id -> comboSpace.combos.filter(_.matchesR2Cond(r2c)).map(_.id).toSet
    }.toMap
    val bestComboForBin: Map[Int, Int] = binning.bins.map { b =>
      val touching = ccs.filter(cc => b.matchesR1Cond(cc.r1Cond(schema)))
      b.id -> comboSpace.combos.minBy(c => (touching.count(cc => comboTouch(cc.id)(c.id)), c.id)).id
    }.toMap

    val rows = vjoin.select(col(s1.key).cast("long") +: col("__bin") +: col("__combo") +:
        (s1.catAttrs.map(c => col(c).cast("string")) ++ s1.numAttrs.map(c => col(c).cast("int"))): _*)
      .collect()
    val nCat = s1.catAttrs.size
    val keyed = rows.map { r =>
      val combo = r.getInt(2)
      val gkey = if (combo >= 0) combo.toLong * 2
                 else bestComboForBin.getOrElse(r.getInt(1), 0).toLong * 2 + 1
      val t: Map[String, Any] = (s1.catAttrs.zipWithIndex.map { case (a, i) => a -> r.getString(3 + i) } ++
        s1.numAttrs.zipWithIndex.map { case (a, i) => a -> r.getInt(3 + nCat + i) }).toMap
      (gkey, r.getLong(0), t)
    }
    val dcsLocal = dcs.toVector
    val results = keyed.groupBy(_._1).toSeq.sortBy(_._1).map { case (gkey, group) =>
      val combo = (gkey / 2).toInt
      val invalidLane = gkey % 2 == 1
      val part = group.sortBy(_._2).toIndexedSeq
      val g0 = System.nanoTime()
      val edges = ConflictGraph.edges(part.map(_._3), dcsLocal)
      val g1 = System.nanoTime()
      val palette = if (invalidLane) IndexedSeq.empty[Long] else candidates.getOrElse(combo, IndexedSeq.empty)
      val (c1, skipped) = ListColoring.colorLF(part.size, edges, Map.empty, palette)
      val freshBase = maxHid + ((combo.toLong + 2) << 33) + (if (invalidLane) 1L << 32 else 0L)
      var colours = c1
      var toColour = skipped
      var freshUsed = 0
      while (toColour.nonEmpty) {
        val fresh = (1 to toColour.size).map(i => freshBase + freshUsed + i)
        val (c2, s2) = ListColoring.colorLF(part.size, edges, colours, fresh)
        freshUsed += toColour.size
        colours = c2
        toColour = s2
      }
      val g2 = System.nanoTime()
      val fk = part.indices.map(i => part(i)._2 -> colours(i))
      (Partition(combo, invalidLane, part.size, edges.size, skipped.size,
                 colours.values.filter(_ > maxHid).toSeq.distinct.size,
                 (g1 - g0) / 1e9, (g2 - g1) / 1e9), fk)
    }
    Phase2(results.map(_._1), results.flatMap(_._2).toMap)
  }
}
