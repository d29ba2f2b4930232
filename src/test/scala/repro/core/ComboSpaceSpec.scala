package repro.core

import repro.core.model._
import repro.core.phase1.ComboSpace
import repro.{PaperExample, SparkSpec}

class ComboSpaceSpec extends SparkSpec {
  import PaperExample.schema

  test("paper example has two combos with housing counts 4 and 2") {
    val cs = ComboSpace.build(PaperExample.r2(spark), schema)
    assert(cs.combos.size == 2)
    val byArea = cs.combos.map(c => c.values("Area") -> c.nHousing).toMap
    assert(byArea == Map("Chicago" -> 4L, "NYC" -> 2L))
  }

  test("combo ids are deterministic") {
    val a = ComboSpace.build(PaperExample.r2(spark), schema)
    val b = ComboSpace.build(PaperExample.r2(spark), schema)
    assert(a.combos == b.combos)
  }

  test("matchesR2Cond selects by value") {
    val cs = ComboSpace.build(PaperExample.r2(spark), schema)
    val chi = cs.combos.filter(_.matchesR2Cond(SelCond(Seq(CatEq("Area", "Chicago")))))
    assert(chi.size == 1 && chi.head.nHousing == 4)
    assert(cs.combos.count(_.matchesR2Cond(SelCond.empty)) == 2)
  }

  test("unusedBy finds combos no CC touches") {
    val cs = ComboSpace.build(PaperExample.r2(spark), schema)
    assert(cs.unusedBy(PaperExample.ccs).isEmpty) // both areas appear in CCs
    assert(cs.unusedBy(PaperExample.ccs.take(1)).map(_.values("Area")) == Seq("NYC"))
  }

  test("withComboId tags each housing row with its combo") {
    val cs = ComboSpace.build(PaperExample.r2(spark), schema)
    val rows = cs.withComboId(PaperExample.r2(spark)).collect()
    assert(rows.length == 6)
    rows.foreach { r =>
      val combo = cs.byId(r.getAs[Int]("__combo"))
      assert(combo.values("Area") == r.getAs[String]("Area"))
    }
  }

  test("asDataFrame round-trips combo values") {
    val cs = ComboSpace.build(PaperExample.r2(spark), schema)
    val rows = cs.asDataFrame(spark).collect().map(r =>
      r.getAs[Int]("__combo") -> r.getAs[String]("Area")).toMap
    cs.combos.foreach(c => assert(rows(c.id) == c.values("Area")))
  }

  test("withComboId keeps values whose concatenations collide apart") {
    import spark.implicits._
    val schema2 = DbSchema(R1Schema("pid", Seq("Rel"), Nil, "hid"), R2Schema("hid", Seq("B1", "B2")))
    val r2 = Seq((1L, "1", "11"), (2L, "11", "1")).toDF("hid", "B1", "B2")
    val cs = ComboSpace.build(r2, schema2)
    val rows = cs.withComboId(r2).collect()
    assert(rows.length == 2)
    rows.foreach { r =>
      val combo = cs.byId(r.getAs[Int]("__combo"))
      assert(combo.values == Map("B1" -> r.getAs[String]("B1"), "B2" -> r.getAs[String]("B2")))
    }
  }
}
