package repro.core.phase1

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.model._

/** One distinct combination of R2's non-key attribute values. */
final case class Combo(id: Int, values: Map[String, String], nHousing: Long)
    extends Serializable {

  /** Does this combo satisfy an R2-side condition? */
  def matchesR2Cond(cond: SelCond): Boolean =
    cond.matches(values)
}

/** The space of R2 `B1..Bq` value combinations present in the data.
  *
  * Phase I assigns each V_Join tuple a combo id; Phase II partitions the
  * conflict hypergraph by combo (candidate FK values are disjoint across
  * combos, Section 5.2).
  */
final case class ComboSpace(schema: DbSchema, combos: IndexedSeq[Combo])
    extends Serializable {

  def byId(id: Int): Combo = combos(id)

  /** Combos whose values are irrelevant to every CC — `combo_unused` of
    * Algorithm 2 line 14.
    */
  def unusedBy(ccs: Seq[CardinalityConstraint]): IndexedSeq[Combo] =
    combos.filter(c => !ccs.exists(cc => c.matchesR2Cond(cc.r2Cond(schema))))

  /** Attach a `__combo` column to an R2-shaped DataFrame: a null-safe
    * equi-join on the B attributes against the small combo table.
    */
  def withComboId(r2: DataFrame): DataFrame = {
    val attrs = schema.r2.attrs
    val keyDf = asDataFrame(r2.sparkSession)
      .select(col("__combo") +: attrs.map(a => col(a).as(s"__key_$a")): _*)
    val on = attrs.map(a => col(a).cast("string") <=> col(s"__key_$a")).foldLeft(lit(true))(_ && _)
    r2.join(keyDf, on, "left").drop(attrs.map(a => s"__key_$a"): _*)
  }

  /** Small DataFrame (comboId, B attrs...) for joining combo values back. */
  def asDataFrame(spark: org.apache.spark.sql.SparkSession): DataFrame = {
    import spark.implicits._
    val attrs = schema.r2.attrs
    val rows = combos.map(c => (c.id, attrs.map(c.values)))
    rows.toDF("__combo", "__vals")
      .select(col("__combo") +: attrs.zipWithIndex.map { case (a, i) =>
        col("__vals").getItem(i).as(a)
      }: _*)
  }
}

object ComboSpace {

  /** Enumerate distinct B-combos of `r2` with housing-row counts. */
  def build(r2: DataFrame, schema: DbSchema): ComboSpace = {
    val attrs = schema.r2.attrs
    val rows = r2.groupBy(attrs.map(col): _*).count()
      .collect()
      .sortBy(_.toString) // deterministic combo ids
    val combos = rows.zipWithIndex.map { case (row, id) =>
      val values = attrs.zipWithIndex.map { case (a, i) => a -> row.get(i).toString }.toMap
      Combo(id, values, row.getLong(row.size - 1))
    }.toIndexedSeq
    ComboSpace(schema, combos)
  }
}
