package repro.core

import scala.annotation.tailrec

import repro.tpg.Tpg
import Ast._

/** The polynomial-time point-based evaluation algorithm of Theorem C.1, run
  * on the driver over Scala sets.
  *
  * Every AST node denotes a relation of 4-tuples `(o1, t1, o2, t2)` over
  * PTO(G) = (N ∪ E) × Ω (existence is *not* implied — the formal semantics
  * navigates through non-existing temporal objects unless `∃` is tested).
  * Concatenation is a hash join on the middle temporal object, numerical
  * occurrence indicators are rewritten by [[Repetition.unfold]]
  * (Algorithms 1–2), and `[0,_]` squares to a fixpoint.
  *
  * The graph's point rows are collected once, at construction; after that
  * no evaluation submits a Spark job. ξ and σ are read per `(id, t)` from
  * those rows, so this reference shares no interval or coalescing code with
  * [[IntervalEvaluator]] or [[TupleEvalSolver]] — only [[Ast]] and
  * [[Repetition.unfold]]. The interval evaluator must agree with it on every
  * expression (cross-checked in tests).
  */
final class PointEvaluator(g: Tpg) {

  private type Rel = Set[(Long, Int, Long, Int)]

  private val memo = scala.collection.mutable.HashMap.empty[Path, Rel]
  private val memoT = scala.collection.mutable.HashMap.empty[Test, Set[(Long, Int)]]

  private val nodeRows = g.nodesP.select("id", "label", "t", "props").collect()
  private val edgeRows = g.edgesP.select("id", "label", "t", "props", "src", "dst").collect()

  private val labels: Map[Long, String] =
    (nodeRows ++ edgeRows).map(r => r.getLong(0) -> r.getString(1)).toMap
  /** Edge id → `(src, dst)`; every other object is a node. */
  private val ends: Map[Long, (Long, Long)] =
    edgeRows.map(r => r.getLong(0) -> ((r.getLong(4), r.getLong(5)))).toMap
  /** σ at every existing temporal object; its keys are ξ. */
  private val props: Map[(Long, Int), Map[String, String]] =
    (nodeRows ++ edgeRows).map(r => (r.getLong(0), r.getInt(2)) -> r.getMap[String, String](3).toMap).toMap

  private val omega = g.omegaLo to g.omegaHi
  private val pto: Set[(Long, Int)] = for (o <- labels.keySet; t <- omega) yield (o, t)

  /** Temporal objects satisfying `test`, as `(id, t)`. */
  def testSat(test: Test): Set[(Long, Int)] = memoT.getOrElseUpdate(test, test match {
    case IsNode       => pto.filterNot(ot => ends.contains(ot._1))
    case IsEdge       => pto.filter(ot => ends.contains(ot._1))
    case HasLabel(l)  => pto.filter(ot => labels(ot._1) == l)
    case PropIs(p, v) => props.keySet.filter(props(_).get(p).contains(v))
    case Lt(k)        => pto.filter(_._2 < k)
    case Exists       => props.keySet
    case And(a, b)    => testSat(a) intersect testSat(b)
    case Or(a, b)     => testSat(a) union testSat(b)
    case Not(x)       => pto diff testSat(x)
    case PathCond(p)  => eval(p).map { case (o1, t1, _, _) => (o1, t1) }
  })

  /** `[[path]]_G` as a set of `(o1, t1, o2, t2)`. */
  def eval(path: Path): Rel = memo.getOrElseUpdate(path, path match {
    case Tst(t) => testSat(t).map { case (o, u) => (o, u, o, u) }
    case F =>
      for ((e, (s, d)) <- ends.toSet; t <- omega; step <- Seq((s, t, e, t), (e, t, d, t)))
        yield step
    case B  => converse(eval(F))
    case Nx => for ((o, t) <- pto if t < g.omegaHi) yield (o, t, o, t + 1)
    case Pv => converse(eval(Nx))
    case Concat(a, b)       => compose(eval(a), eval(b))
    case Union(a, b)        => eval(a) union eval(b)
    case Repeat(p, 0, None) => square(eval(Tst(True)) union eval(p))
    case rep: Repeat        => eval(Repetition.unfold(rep))
  })

  /** `a ∘ b`: a hash join on the middle temporal object. */
  private def compose(a: Rel, b: Rel): Rel = {
    val from = b.groupBy { case (o1, t1, _, _) => (o1, t1) }
    for ((o1, t1, o2, t2) <- a; (_, _, o3, t3) <- from.getOrElse((o2, t2), Set.empty)) yield (o1, t1, o3, t3)
  }

  /** `s ∪ s∘s` to a fixpoint: `r[0,_]` from `s = id ∪ r`. Union only grows
    * the set, so an unchanged size is convergence.
    */
  @tailrec private def square(s: Rel): Rel = {
    val s2 = s union compose(s, s)
    if (s2.size == s.size) s else square(s2)
  }

  /** `{(o2,t2,o1,t1) | (o1,t1,o2,t2) ∈ r}` — `B` from `F`, `P` from `N`. */
  private def converse(r: Rel): Rel = r.map { case (o1, t1, o2, t2) => (o2, t2, o1, t1) }
}
