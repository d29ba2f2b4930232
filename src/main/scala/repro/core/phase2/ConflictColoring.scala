package repro.core.phase2

import repro.core.model._
import scala.collection.mutable

/** Algorithms 3–4 on one combo partition without materialising its conflict
  * graph.
  *
  * Largest-first list colouring needs two things: each vertex's degree, and
  * the test "would colour `c` complete a violating edge at `v`?". A colour's
  * members are one household, so both are answered straight from the DCs:
  * pairwise DCs are compiled once into attribute indices, each vertex gets a
  * bitmask of the DC slots its values match, and a pair conflicts when some
  * DC matches it in either orientation and all its cross atoms hold. DCs of
  * arity ≥ 3 (rare; the NAE-3SAT reduction uses one) keep their hyperedges
  * from [[ConflictGraph.edges]], which add to degrees and forbid colours
  * exactly as in [[ListColoring.colorLF]].
  *
  * The result equals [[ConflictGraph.edges]] + [[ListColoring.colorLF]] +
  * Algorithm 4's fresh-key rounds, vertex by vertex; those stay the
  * reference implementation the tests compare against.
  *
  * @param dcs the FK DCs; every one must be valid over `r1`
  *            ([[DenialConstraint.requireOver]])
  * @param r1  schema of the tuples to colour: the `cats`/`nums` of
  *            [[color]] are indexed like `r1.catAttrs`/`r1.numAttrs`
  */
final case class ConflictColoring(dcs: Seq[DenialConstraint], r1: R1Schema) {
  import ConflictColoring._

  dcs.foreach(_.requireOver(r1))

  private val (pairDcs, hyperDcs) = dcs.toVector.partition(_.arity == 2)
  private val words = (pairDcs.size + 63) / 64

  private def attrRef(a: String): AttrRef = {
    val c = r1.catAttrs.indexOf(a)
    if (c >= 0) AttrRef(cat = true, c) else AttrRef(cat = false, r1.numAttrs.indexOf(a))
  }

  /** Per pairwise DC and slot, its predicates with the attribute they read. */
  private val slotPreds: Vector[Vector[Vector[(Pred, AttrRef)]]] =
    pairDcs.map(_.slots.toVector.map(_.preds.toVector.map(p => p -> attrRef(p.attr))))

  /** Per pairwise DC, its cross atoms over numeric attribute indices. */
  private val atoms: Vector[Array[Atom]] = pairDcs.map(_.cross.map { c =>
    Atom(c.i, r1.numAttrs.indexOf(c.attrI), c.op, c.j, r1.numAttrs.indexOf(c.attrJ), c.offset)
  }.toArray)

  /** Colour one partition: largest-first first-fit over `palette` (tried in
    * ascending order), then rounds of fresh keys `freshBase + 1, + 2, …` for
    * the vertices the palette could not take.
    *
    * @param cats per vertex, its categorical values in `r1.catAttrs` order
    * @param nums per vertex, its numeric values in `r1.numAttrs` order
    */
  def color(cats: IndexedSeq[Seq[String]], nums: IndexedSeq[Seq[Int]],
            palette: IndexedSeq[Long], freshBase: Long): Result = {
    val n = cats.size
    val nNum = r1.numAttrs.size
    val num = new Array[Int](n * nNum)
    for (v <- 0 until n; k <- 0 until nNum) num(v * nNum + k) = nums(v)(k)

    // m0/m1: bit d of vertex v's words is set when v satisfies slot 0/1 of
    // pairwise DC d.
    val m0 = new Array[Long](n * words)
    val m1 = new Array[Long](n * words)
    for (v <- 0 until n; d <- pairDcs.indices) {
      def matches(s: Int) = slotPreds(d)(s).forall { case (p, a) =>
        p.matches(if (a.cat) cats(v)(a.idx) else nums(v)(a.idx))
      }
      val bit = 1L << (d & 63)
      if (matches(0)) m0(v * words + (d >> 6)) |= bit
      if (matches(1)) m1(v * words + (d >> 6)) |= bit
    }

    def crossHolds(d: Int, s0: Int, s1: Int): Boolean = {
      val as = atoms(d)
      var k = 0
      while (k < as.length) {
        val a = as(k)
        val l = num((if (a.i == 0) s0 else s1) * nNum + a.attrI)
        val r = num((if (a.j == 0) s0 else s1) * nNum + a.attrJ)
        if (!a.op.eval(l, r + a.offset)) return false
        k += 1
      }
      true
    }

    /** Some pairwise DC's body holds with (s0, s1) in its two slots. */
    def holdsOriented(s0: Int, s1: Int, w: Int): Boolean = {
      var cand = m0(s0 * words + w) & m1(s1 * words + w)
      while (cand != 0) {
        if (crossHolds(w * 64 + java.lang.Long.numberOfTrailingZeros(cand), s0, s1)) return true
        cand &= cand - 1
      }
      false
    }

    /** `u` and `v` form a pairwise conflict edge. */
    def conflict(u: Int, v: Int): Boolean = {
      var w = 0
      while (w < words) {
        if (holdsOriented(u, v, w) || holdsOriented(v, u, w)) return true
        w += 1
      }
      false
    }

    val hyperIncident = Array.fill(n)(mutable.ArrayBuffer.empty[Vector[Int]])
    if (hyperDcs.nonEmpty) {
      val tuples = (0 until n).map(v =>
        (r1.catAttrs.zip(cats(v)) ++ r1.numAttrs.zip(nums(v))).toMap[String, Any])
      ConflictGraph.edges(tuples, hyperDcs).foreach(e => e.foreach(v => hyperIncident(v) += e))
    }

    // Degree = distinct pairwise neighbours + incident hyperedges, as the
    // deduplicated edge list of the reference gives it.
    val deg = Array.tabulate(n)(hyperIncident(_).size)
    for (u <- 0 until n; v <- (u + 1) until n if conflict(u, v)) {
      deg(u) += 1; deg(v) += 1
    }

    val colour = new Array[Long](n)
    val coloured = new Array[Boolean](n)
    val members = mutable.LongMap.empty[mutable.ArrayBuffer[Int]]

    /** Colours some hyperedge at `v` would make monochromatic. */
    def hyperForbidden(v: Int): Set[Long] = hyperIncident(v).flatMap { e =>
      val others = e.filter(_ != v)
      if (others.forall(coloured(_)) && others.map(colour(_)).distinct.size == 1) Some(colour(others.head))
      else None
    }.toSet

    def free(v: Int, c: Long, forbidden: Set[Long]): Boolean =
      !forbidden(c) && members.get(c).forall(_.forall(u => !conflict(u, v)))

    /** First-fit of `order` over the ascending `candidates`; returns the
      * vertices no candidate could take, in the order they were considered.
      */
    def firstFit(order: Seq[Int], candidates: IndexedSeq[Long]): Vector[Int] = {
      val skipped = Vector.newBuilder[Int]
      for (v <- order) {
        val forbidden = hyperForbidden(v)
        candidates.find(free(v, _, forbidden)) match {
          case Some(c) =>
            colour(v) = c; coloured(v) = true
            members.getOrElseUpdate(c, mutable.ArrayBuffer.empty) += v
          case None => skipped += v
        }
      }
      skipped.result()
    }

    val skipped = firstFit((0 until n).sortBy(v => (-deg(v), v)), palette.sorted)
    // Each round's leftovers keep the largest-first order, so they are the
    // order the next round considers them in.
    var toColour = skipped
    var freshUsed = 0L
    while (toColour.nonEmpty) {
      val fresh = (1 to toColour.size).map(i => freshBase + freshUsed + i)
      freshUsed += toColour.size
      toColour = firstFit(toColour, fresh)
    }
    Result(colour.toIndexedSeq, skipped)
  }
}

object ConflictColoring {

  /** @param colors  the FK of every vertex, fresh keys included
    * @param skipped vertices the palette could not take, in the order they
    *                were considered (they got fresh keys)
    */
  final case class Result(colors: IndexedSeq[Long], skipped: Vector[Int])

  private final case class AttrRef(cat: Boolean, idx: Int)

  /** `t_i.attrI op t_j.attrJ + offset`, attributes as numeric indices. */
  private final case class Atom(i: Int, attrI: Int, op: CmpOp, j: Int, attrJ: Int, offset: Int)
}
