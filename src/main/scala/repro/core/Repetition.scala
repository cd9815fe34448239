package repro.core

import Ast._

/** Numerical occurrence indicators, shared by every evaluator.
  *
  * A finite or `[n,_]` (n > 0) indicator is rewritten by [[unfold]] — the
  * halving decomposition of the paper's Algorithms 1–2 (ComputeRepetition,
  * ComputeIntervalRepetition) and 5 (`TupleEvalSolve`) — into
  * concatenations and unions of smaller repeats, which each evaluator then
  * evaluates through its own path memo, so both halves share one result.
  * Only `r[0,_]` has no finite unfolding: each evaluator squares it to a
  * fixpoint itself (the driver-local solver saturates it at a step bound).
  * [[IntervalEvaluator]] takes neither path for temporal runs `(N/φ)[n,m]`
  * and `(P/φ)[n,m]`, which it builds in closed form, so there the closure
  * serves only bodies that are not such runs.
  */
object Repetition {

  /** One rewrite step: `r[2l,2l] = h/h` and `r[2l+1,2l+1] = h/(r/h)` with
    * `h = r[l,l]`; `r[0,m]` halves the same way with `r[0,1] = True + r`;
    * `r[n,m] = r[n,n]/r[0,m−n]`; `r[n,_] = r[n,n]/r[0,_]`.
    */
  def unfold(rep: Repeat): Path = rep match {
    case Repeat(_, 0, None)    => throw new IllegalArgumentException("r[0,_] has no finite unfolding")
    case Repeat(r, n, None)    => Concat(Repeat(r, n, Some(n)), Repeat(r, 0, None))
    case Repeat(_, 0, Some(0)) => Tst(True)
    case Repeat(r, 1, Some(1)) => r
    case Repeat(r, n, Some(m)) if n == m =>
      val h = Repeat(r, n / 2, Some(n / 2))
      if (n % 2 == 0) Concat(h, h) else Concat(h, Concat(r, h))
    case Repeat(r, 0, Some(1)) => Union(Tst(True), r)
    case Repeat(r, 0, Some(m)) =>
      val h = Repeat(r, 0, Some(m / 2))
      if (m % 2 == 0) Concat(h, h) else Concat(h, Concat(Repeat(r, 0, Some(1)), h))
    case Repeat(r, n, Some(m)) => Concat(Repeat(r, n, Some(n)), Repeat(r, 0, Some(m - n)))
  }
}
