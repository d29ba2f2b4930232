package repro.core.model

/** Comparison operator for cross-tuple atoms in a DC. */
sealed trait CmpOp extends Serializable {
  def eval(l: Int, r: Int): Boolean
}
object CmpOp {
  case object Lt extends CmpOp { def eval(l: Int, r: Int): Boolean = l < r }
  case object Gt extends CmpOp { def eval(l: Int, r: Int): Boolean = l > r }
  case object Le extends CmpOp { def eval(l: Int, r: Int): Boolean = l <= r }
  case object Ge extends CmpOp { def eval(l: Int, r: Int): Boolean = l >= r }
  case object EqOp extends CmpOp { def eval(l: Int, r: Int): Boolean = l == r }
  case object Ne extends CmpOp { def eval(l: Int, r: Int): Boolean = l != r }
}

/** Cross-tuple atom `t_i.attrI op (t_j.attrJ + offset)` over numeric attrs. */
final case class CrossCond(i: Int, attrI: String, op: CmpOp,
                           j: Int, attrJ: String, offset: Int) extends Serializable

/** Foreign Key denial constraint (Definition 2.2):
  *
  * `∀ t_1..t_k. ¬( slot-conds ∧ cross-conds ∧ t_1.FK = ... = t_k.FK )`
  *
  * `slots(i)` is a conjunctive single-tuple condition on `t_{i+1}`; `cross`
  * relates numeric attributes of two slots. DCs with `Rel ∈ {..}` or
  * "age outside [lo,hi]" disjunctions are expanded into several conjunctive
  * DCs by the constraint generators (one per alternative).
  *
  * @param name  identifier for reporting
  * @param slots per-tuple conjunctive conditions; `slots.size` = DC arity k
  * @param cross cross-tuple comparison atoms
  */
final case class DenialConstraint(name: String, slots: Seq[SelCond],
                                  cross: Seq[CrossCond]) extends Serializable {
  require(slots.size >= 2, s"FK DC needs arity ≥ 2, got ${slots.size} in $name")

  def arity: Int = slots.size

  /** Rejects a DC that could never match a tuple of `r1`: a slot predicate
    * on an attribute R1 lacks, or a cross atom on a slot beyond the arity or
    * on an attribute that is not a numeric R1 attribute.
    */
  def requireOver(r1: R1Schema): Unit = {
    for (s <- slots; p <- s.preds)
      require(r1.attrs.contains(p.attr),
              s"DC $name: slot predicate on ${p.attr}, not an attribute of R1 (${r1.attrs.mkString(", ")})")
    for (c <- cross) {
      require(Seq(c.i, c.j).forall(s => s >= 0 && s < arity),
              s"DC $name: cross atom $c names a slot outside 0..${arity - 1}")
      for (a <- Seq(c.attrI, c.attrJ))
        require(r1.numAttrs.contains(a),
                s"DC $name: cross atom on $a, not a numeric attribute of R1 (${r1.numAttrs.mkString(", ")})")
    }
  }

  /** Do the given tuples (attribute → value maps, one per slot, in slot
    * order) satisfy the non-FK body of the DC — i.e. would they violate the
    * DC if they all shared a foreign key?
    */
  def bodyHolds(tuples: IndexedSeq[Map[String, Any]]): Boolean = {
    require(tuples.size == arity, s"expected $arity tuples")
    slots.indices.forall(i => slots(i).matches(tuples(i))) &&
      cross.forall { cc =>
        (tuples(cc.i).get(cc.attrI), tuples(cc.j).get(cc.attrJ)) match {
          case (Some(l: Int), Some(r: Int)) => cc.op.eval(l, r + cc.offset)
          case (Some(l), Some(r)) =>
            cc.op.eval(l.toString.toInt, r.toString.toInt + cc.offset)
          case _ => false
        }
      }
  }
}
