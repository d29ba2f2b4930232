package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport._
import repro.census.CensusSchema._
import repro.census.ConstraintGen
import repro.core.model._
import repro.core.model.CmpOp._
import repro.core.phase2.{ConflictColoring, ConflictGraph, ListColoring}

/** Differential tests: [[ConflictColoring]] must colour every partition
  * exactly as the reference — [[ConflictGraph.edges]], then
  * [[ListColoring.colorLF]] over the palette, then rounds of fresh keys for
  * the skipped vertices — vertex by vertex, skipped list and fresh keys
  * included.
  */
class ConflictColoringSpec extends AnyFunSuite {
  import ConflictColoringSpec._

  private val freshBase = 1000000L

  private val relGen: Gen[String] =
    Gen.frequency(4 -> Gen.const(Owner), 2 -> Gen.const(Spouse), 3 -> Gen.oneOf(Rels))

  private val partGen: Gen[Part] = for {
    n <- Gen.choose(0, 30)
    rows <- Gen.listOfN(n, for {
      rel <- relGen; ml <- Gen.oneOf("0", "1")
      yrs <- Gen.choose(0, 4); age <- Gen.choose(0, MaxAge)
    } yield (Seq(rel, ml), Seq(yrs, age)))
  } yield Part(rows.map(_._1).toIndexedSeq, rows.map(_._2).toIndexedSeq)

  /** Distinct keys, ascending or not, possibly fewer than a partition's owners. */
  private def paletteGen(maxSize: Int): Gen[IndexedSeq[Long]] = for {
    k <- Gen.choose(0, maxSize)
    keys <- Gen.pick(k, 1L to 500L)
    palette <- Gen.oneOf(keys.sorted, keys.sorted.reverse)
  } yield palette.toIndexedSeq

  private val predGen: Map[String, Gen[Pred]] = Map(
    "Rel" -> relGen.map(CatEq("Rel", _)),
    "MultiLing" -> Gen.oneOf("0", "1").map(CatEq("MultiLing", _)),
    "Yrs" -> Gen.choose(0, 4).flatMap(lo => Gen.choose(lo, 4).map(NumRange("Yrs", lo, _))),
    "Age" -> Gen.choose(0, MaxAge).flatMap(lo => Gen.choose(lo, MaxAge).map(NumRange("Age", lo, _))))

  private val slotGen: Gen[SelCond] = for {
    attrs <- Gen.someOf(r1.attrs)
    preds <- Gen.sequence[Seq[Pred], Pred](attrs.map(predGen))
  } yield SelCond(preds)

  private def crossGen(arity: Int): Gen[CrossCond] = for {
    i <- Gen.choose(0, arity - 1); j <- Gen.choose(0, arity - 1)
    attrI <- Gen.oneOf(r1.numAttrs); attrJ <- Gen.oneOf(r1.numAttrs)
    op <- Gen.oneOf(Lt, Gt, Le, Ge, EqOp, Ne)
    offset <- Gen.choose(-20, 20)
  } yield CrossCond(i, attrI, op, j, attrJ, offset)

  private def dcGen(arity: Int): Gen[DenialConstraint] = for {
    slots <- Gen.listOfN(arity, slotGen)
    nCross <- Gen.choose(0, 2)
    cross <- Gen.listOfN(nCross, crossGen(arity))
  } yield DenialConstraint(s"rand$arity", slots, cross)

  private def reference(part: Part, dcs: Seq[DenialConstraint],
                        palette: IndexedSeq[Long]): ConflictColoring.Result = {
    val n = part.cats.size
    val edges = ConflictGraph.edges(part.tuples, dcs)
    val (c1, skipped) = ListColoring.colorLF(n, edges, Map.empty, palette)
    var colors = c1
    var toColor = skipped
    var freshUsed = 0
    while (toColor.nonEmpty) {
      val fresh = (1 to toColor.size).map(i => freshBase + freshUsed + i)
      val (c2, s2) = ListColoring.colorLF(n, edges, colors, fresh)
      freshUsed += toColor.size
      colors = c2
      toColor = s2
    }
    ConflictColoring.Result((0 until n).map(colors), skipped)
  }

  private def agrees(part: Part, dcs: Seq[DenialConstraint], palette: IndexedSeq[Long]): Boolean = {
    val got = ConflictColoring(dcs, r1).color(part.cats, part.nums, palette, freshBase)
    val want = reference(part, dcs, palette)
    if (got != want) println(s"DCs $dcs, palette $palette, partition ${part}\n got $got\n want $want")
    got == want
  }

  test("property: same colouring as the reference on random subsets of S_DC_all") {
    checkProp(partGen, Gen.someOf(ConstraintGen.sdcAll), paletteGen(12)) { (p, dcs, pal) =>
      agrees(p, dcs.toSeq, pal)
    }
  }

  test("property: same colouring on random pairwise DCs (every slot order and CmpOp)") {
    val dcsGen = Gen.choose(1, 4).flatMap(Gen.listOfN(_, dcGen(2)))
    checkProp(partGen, dcsGen, paletteGen(12))(agrees)
  }

  test("property: same colouring with arity-3 DCs among pairwise ones") {
    val sameYrs = DenialConstraint("same_yrs", Seq(SelCond.empty, SelCond.empty, SelCond.empty),
      Seq(CrossCond(0, "Yrs", EqOp, 1, "Yrs", 0), CrossCond(1, "Yrs", EqOp, 2, "Yrs", 0)))
    val dcsGen = for {
      pair <- Gen.choose(0, 2).flatMap(Gen.listOfN(_, dcGen(2)))
      triple <- Gen.oneOf(Gen.const(sameYrs), dcGen(3))
    } yield triple +: pair
    checkProp(partGen, dcsGen, paletteGen(6))(agrees)
  }

  test("property: empty palettes (the invalid lane) give every vertex a fresh key") {
    checkProp(partGen, Gen.someOf(ConstraintGen.sdcAll)) { (p, dcs) =>
      val res = ConflictColoring(dcs.toSeq, r1).color(p.cats, p.nums, IndexedSeq.empty, freshBase)
      agrees(p, dcs.toSeq, IndexedSeq.empty) &&
        res.skipped.sorted == p.cats.indices && res.colors.forall(_ > freshBase)
    }
  }

  test("property: palettes smaller than the owner clique skip owners into fresh keys") {
    checkProp(partGen, paletteGen(3)) { (p, pal) =>
      val owners = p.cats.count(_.head == Owner)
      val res = ConflictColoring(ConstraintGen.sdcAll, r1).color(p.cats, p.nums, pal, freshBase)
      agrees(p, ConstraintGen.sdcAll, pal) &&
        res.skipped.size >= owners - pal.size
    }
  }

  test("an owner clique larger than the palette: first-fit order and fresh numbering") {
    val cats = IndexedSeq(Seq(Owner, "0"), Seq(Owner, "1"), Seq(Owner, "0"), Seq(Sibling, "0"))
    val nums = IndexedSeq(Seq(0, 40), Seq(0, 50), Seq(0, 60), Seq(0, 45))
    val res = ConflictColoring(ConstraintGen.sdcAll, r1).color(cats, nums, IndexedSeq(9L, 7L), freshBase)
    assert(res == ConflictColoring.Result(IndexedSeq(7L, 9L, freshBase + 1, 7L), Vector(2)))
  }

  test("a DC that names an attribute R1 lacks is rejected when compiled") {
    val bad = DenialConstraint("bad", Seq(SelCond(Seq(CatEq("Tenure", "Owned"))), SelCond.empty), Nil)
    assertThrows[IllegalArgumentException](ConflictColoring(Seq(bad), r1))
  }
}

object ConflictColoringSpec {
  // Census-like tuples plus a second, small-domain numeric attribute, listed
  // first so attribute indices differ from the Census schema's.
  val r1: R1Schema = R1Schema("pid", Seq("Rel", "MultiLing"), Seq("Yrs", "Age"), "hid")

  /** One partition: per vertex, its values in `r1.catAttrs`/`r1.numAttrs` order. */
  final case class Part(cats: IndexedSeq[Seq[String]], nums: IndexedSeq[Seq[Int]]) {
    def tuples: IndexedSeq[Map[String, Any]] = cats.indices.map(v =>
      (r1.catAttrs.zip(cats(v)) ++ r1.numAttrs.zip(nums(v))).toMap[String, Any])
    override def toString: String = tuples.mkString("\n  ", "\n  ", "")
  }
}
