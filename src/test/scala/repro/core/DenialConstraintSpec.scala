package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.census.ConstraintGen
import repro.core.model._
import repro.core.model.CmpOp._

class DenialConstraintSpec extends AnyFunSuite {
  private val ownerOwner = DenialConstraint("oo",
    Seq(SelCond(Seq(CatEq("Rel", "Owner"))), SelCond(Seq(CatEq("Rel", "Owner")))), Nil)

  private val spouseGap = DenialConstraint("gap",
    Seq(SelCond(Seq(CatEq("Rel", "Owner"))), SelCond(Seq(CatEq("Rel", "Spouse")))),
    Seq(CrossCond(1, "Age", Lt, 0, "Age", -50)))

  private def t(rel: String, age: Int): Map[String, Any] = Map("Rel" -> rel, "Age" -> age)

  test("arity must be at least 2") {
    assertThrows[IllegalArgumentException](
      DenialConstraint("x", Seq(SelCond.empty), Nil))
  }
  test("two owners violate the owner-owner body") {
    assert(ownerOwner.bodyHolds(IndexedSeq(t("Owner", 40), t("Owner", 50))))
  }
  test("owner + spouse does not trigger owner-owner") {
    assert(!ownerOwner.bodyHolds(IndexedSeq(t("Owner", 40), t("Spouse", 50))))
  }
  test("cross condition: spouse 51 years younger violates") {
    assert(spouseGap.bodyHolds(IndexedSeq(t("Owner", 80), t("Spouse", 29))))
  }
  test("cross condition: spouse exactly 50 years younger is fine") {
    assert(!spouseGap.bodyHolds(IndexedSeq(t("Owner", 80), t("Spouse", 30))))
  }
  test("slot order matters for asymmetric DCs") {
    assert(!spouseGap.bodyHolds(IndexedSeq(t("Spouse", 29), t("Owner", 80))))
  }
  test("wrong tuple count is rejected") {
    assertThrows[IllegalArgumentException](
      spouseGap.bodyHolds(IndexedSeq(t("Owner", 80))))
  }
  test("all comparison operators evaluate correctly") {
    assert(Lt.eval(1, 2) && !Lt.eval(2, 2))
    assert(Gt.eval(3, 2) && !Gt.eval(2, 2))
    assert(Le.eval(2, 2) && !Le.eval(3, 2))
    assert(Ge.eval(2, 2) && !Ge.eval(1, 2))
    assert(EqOp.eval(2, 2) && !EqOp.eval(1, 2))
    assert(Ne.eval(1, 2) && !Ne.eval(2, 2))
  }
  test("arity-3 DC with pairwise equality crosses") {
    val sameCls = DenialConstraint("cls",
      Seq(SelCond.empty, SelCond.empty, SelCond.empty),
      Seq(CrossCond(0, "Cls", EqOp, 1, "Cls", 0), CrossCond(1, "Cls", EqOp, 2, "Cls", 0)))
    def u(c: Int): Map[String, Any] = Map("Cls" -> c)
    assert(sameCls.bodyHolds(IndexedSeq(u(1), u(1), u(1))))
    assert(!sameCls.bodyHolds(IndexedSeq(u(1), u(1), u(2))))
  }
  test("missing attribute in a cross condition fails the body") {
    assert(!spouseGap.bodyHolds(IndexedSeq(Map("Rel" -> "Owner"), t("Spouse", 20))))
  }

  private val r1 = R1Schema("pid", Seq("Rel", "MultiLing"), Seq("Age"), "hid")

  test("requireOver accepts DCs over R1's attributes") {
    (ConstraintGen.sdcAll :+ ownerOwner :+ spouseGap).foreach(_.requireOver(r1))
  }
  test("requireOver rejects a slot predicate on an attribute R1 lacks") {
    val onR2 = DenialConstraint("onR2",
      Seq(SelCond(Seq(CatEq("Rel", "Owner"))), SelCond(Seq(CatEq("Area", "A01")))), Nil)
    val onKey = DenialConstraint("onKey",
      Seq(SelCond(Seq(NumRange("pid", 0, 9))), SelCond.empty), Nil)
    Seq(onR2, onKey).foreach(dc => assertThrows[IllegalArgumentException](dc.requireOver(r1)))
  }
  test("requireOver rejects a cross atom on a non-numeric or unknown attribute") {
    val onCat = DenialConstraint("onCat", Seq(SelCond.empty, SelCond.empty),
      Seq(CrossCond(0, "MultiLing", EqOp, 1, "MultiLing", 0)))
    val onUnknown = DenialConstraint("onUnknown", Seq(SelCond.empty, SelCond.empty),
      Seq(CrossCond(0, "Age", Lt, 1, "Years", 0)))
    val pastArity = DenialConstraint("pastArity", Seq(SelCond.empty, SelCond.empty),
      Seq(CrossCond(0, "Age", Lt, 2, "Age", 0)))
    Seq(onCat, onUnknown, pastArity).foreach(dc =>
      assertThrows[IllegalArgumentException](dc.requireOver(r1)))
  }
}
