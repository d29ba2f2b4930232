package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import repro.core.model._
import repro.core.phase1.ComboSpace
import scala.collection.mutable

/** Outcome of checking one solve's output.
  *
  * @param failures    violated properties, empty when the output is valid
  * @param dcViolating R̂1 tuples that take part in some DC violation
  * @param ccCounts    per CC (in input order), its count on R̂1 ⋈ R̂2
  * @param nInvalid    tuples Phase I left without B values (`__combo = -1`)
  * @param nFreshR2    R̂2 rows whose key is not in R2
  */
final case class CheckReport(failures: Seq[String], nR1: Long, dcViolating: Long,
                             ccCounts: Seq[Long], nInvalid: Long, nFreshR2: Long) {
  def ok: Boolean = failures.isEmpty
  def dcErr: Double = if (nR1 == 0) 0.0 else dcViolating.toDouble / nR1
}

/** Checks C-Extension outputs for one input (R1, R2, DCs, CCs) on the
  * driver, without the solver's conflict-graph code or the error measures
  * it reports:
  *   - R̂1 holds exactly R1's tuples, keys unique and attributes unchanged;
  *   - every R̂1.FK resolves to exactly one R̂2 row;
  *   - R̂2 ⊇ R2, with R2's rows unchanged;
  *   - each tuple's R̂2 row has the B values V_Join gave its combo;
  *   - DC violations are found by testing every ordered k-tuple of each
  *     household against the DC with `bodyHolds` (k-tuples are pruned as
  *     soon as a member fails its slot's condition, which `bodyHolds`
  *     requires anyway);
  *   - CC counts are taken tuple by tuple on R̂1 ⋈ R̂2, evaluating each
  *     predicate here rather than through the model's matchers.
  * DC and CC error limits are the caller's to apply. The inputs are
  * collected once, when the checker is made.
  */
final class OutputCheck(r1: DataFrame, r2: DataFrame, schema: DbSchema,
                        dcs: Seq[DenialConstraint], ccs: Seq[CardinalityConstraint]) {
  import OutputCheck.Tuple
  private val s1 = schema.r1
  private val s2 = schema.r2
  private val attrCols = s1.attrs.map(col)

  private def tupleOf(row: Row, offset: Int): Tuple =
    (s1.catAttrs.zipWithIndex.map { case (a, i) => a -> String.valueOf(row.get(offset + i)) } ++
      s1.numAttrs.zipWithIndex.map { case (a, i) =>
        a -> row.getAs[Number](offset + s1.catAttrs.size + i).intValue
      }).toMap
  private def r2Vals(row: Row): Seq[String] = s2.attrs.indices.map(i => String.valueOf(row.get(1 + i)))

  private val r1Tuples: Map[Long, Tuple] =
    r1.select(col(s1.key).cast("long") +: attrCols: _*).collect()
      .map(r => r.getLong(0) -> tupleOf(r, 1)).toMap
  private val r2Rows: Map[Long, Seq[String]] =
    r2.select(col(s2.key).cast("long") +: s2.attrs.map(col): _*).collect()
      .map(r => r.getLong(0) -> r2Vals(r)).toMap
  /** Combo id → its R2 attribute values, in `schema.r2.attrs` order. */
  private val comboValues: Map[Int, Seq[String]] = OutputCheck.comboValues(r2, schema)

  /** CC conditions as tests on joined tuples, evaluated here. */
  private val ccTests: Seq[Tuple => Boolean] = ccs.map { cc =>
    val tests: Seq[Tuple => Boolean] = cc.cond.preds.map {
      case CatEq(a, v) => (t: Tuple) => t.get(a).exists(x => String.valueOf(x) == v)
      case NumRange(a, lo, hi) => (t: Tuple) => t.get(a).exists {
        case x: Int => lo <= x && x <= hi
        case _ => false
      }
    }
    (t: Tuple) => tests.forall(_(t))
  }

  def check(r1Hat: DataFrame, r2Hat: DataFrame, vjoin: DataFrame): CheckReport = {
    val failures = mutable.ArrayBuffer.empty[String]
    def fail(msg: String): Unit = if (failures.size < 20) failures += msg

    val hatRows = r1Hat.select(col(s1.key).cast("long") +: col(s1.fk).cast("long") +: attrCols: _*)
      .collect()
    val r2HatRows = r2Hat.select(col(s2.key).cast("long") +: s2.attrs.map(col): _*).collect()
      .map(r => (if (r.isNullAt(0)) Long.MinValue else r.getLong(0)) -> r2Vals(r))
    val comboOf: Map[Long, Int] = vjoin.select(col(s1.key).cast("long"), col("__combo")).collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap

    // R̂1 is R1 with the FK filled in.
    if (hatRows.length != r1Tuples.size) fail(s"|R̂1| = ${hatRows.length}, |R1| = ${r1Tuples.size}")
    val hatKeys = hatRows.map(_.getLong(0))
    if (hatKeys.distinct.length != hatKeys.length) fail("R̂1 keys are not unique")
    val hat: Map[Long, (Long, Tuple)] = hatRows.map { r =>
      r.getLong(0) -> ((if (r.isNullAt(1)) Long.MinValue else r.getLong(1)), tupleOf(r, 2))
    }.toMap
    for ((k, t) <- r1Tuples) hat.get(k) match {
      case None => fail(s"R1 tuple $k is missing from R̂1")
      case Some((_, ht)) if ht != t => fail(s"R̂1 tuple $k changed its attributes")
      case _ => ()
    }

    // Every FK resolves to exactly one R̂2 row; R̂2 keeps R2's rows.
    val r2HatByKey = r2HatRows.groupBy(_._1)
    for ((k, rows) <- r2HatByKey if rows.length > 1) fail(s"R̂2 key $k occurs ${rows.length} times")
    for ((k, (fk, _)) <- hat if !r2HatByKey.contains(fk)) fail(s"R̂1 tuple $k has FK $fk, not in R̂2")
    for ((k, v) <- r2Rows) r2HatByKey.get(k) match {
      case Some(Array((_, hv), _*)) if hv == v => ()
      case _ => fail(s"R2 row $k is missing or changed in R̂2")
    }

    // The join gives each tuple the B values its V_Join combo stands for.
    if (comboOf.keySet != r1Tuples.keySet) fail("V_Join does not hold exactly R1's keys")
    var nInvalid = 0L
    for ((k, (fk, _)) <- hat; c <- comboOf.get(k); rows <- r2HatByKey.get(fk)) {
      if (c < 0) nInvalid += 1
      else if (!comboValues.get(c).contains(rows.head._2))
        fail(s"R̂1 tuple $k joins B values ${rows.head._2}, V_Join gave combo $c")
    }

    // DCs: every ordered k-tuple of distinct members of each household.
    val violating = mutable.Set.empty[Long]
    for ((_, members) <- hat.toSeq.groupBy(_._2._1); dc <- dcs) {
      val ms = members.toIndexedSeq
      def rec(chosen: List[Int]): Unit =
        if (chosen.size == dc.arity) {
          val idx = chosen.reverse.toIndexedSeq
          if (dc.bodyHolds(idx.map(i => ms(i)._2._2))) idx.foreach(i => violating += ms(i)._1)
        } else {
          val slot = dc.slots(chosen.size)
          ms.indices.foreach { i =>
            if (!chosen.contains(i) && slot.matches(ms(i)._2._2)) rec(i :: chosen)
          }
        }
      if (ms.size >= dc.arity) rec(Nil)
    }

    // CC counts on R̂1 ⋈ R̂2.
    val joined: Seq[Tuple] = hat.values.toSeq.flatMap { case (fk, t) =>
      r2HatByKey.get(fk).map(rows => t ++ s2.attrs.zip(rows.head._2))
    }
    val ccCounts = ccTests.map(test => joined.count(test).toLong)
    val nFreshR2 = r2HatByKey.keySet.count(k => !r2Rows.contains(k))

    CheckReport(failures.toSeq, r1Tuples.size.toLong, violating.size.toLong, ccCounts, nInvalid,
                nFreshR2.toLong)
  }
}

object OutputCheck {
  type Tuple = Map[String, Any]

  /** Combo id → its R2 attribute values, as Phase I numbers the combos. */
  def comboValues(r2: DataFrame, schema: DbSchema): Map[Int, Seq[String]] =
    ComboSpace.build(r2, schema).combos.map(c => c.id -> schema.r2.attrs.map(c.values)).toMap

  /** The paper's relative CC error `|ĉ − c| / max(10, c)` (§6.1). */
  def relError(count: Long, target: Long): Double =
    math.abs(count - target).toDouble / math.max(10L, target)
}
