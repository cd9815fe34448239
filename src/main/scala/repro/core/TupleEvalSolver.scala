package repro.core

import scala.collection.mutable

import repro.tpg.Itpg
import Ast._

/** Driver-local ITPG snapshot for [[TupleEvalSolver]] and [[PairChecker]]. */
final case class LocalObject(
    id: Long,
    isNode: Boolean,
    label: String,
    src: Long, // -1 for nodes
    dst: Long,
    exist: Seq[(Int, Int)], // coalesced ξ intervals
    props: Map[String, Seq[(String, Int, Int)]] // p → coalesced (v, ts, te)
)

/** Algorithms 4–5 of the paper (`TupleEvalSolve`): membership
  * `(o1,t1,o2,t2) ∈ [[r]]_C` for the full language NavL[PC,NOI] over a
  * driver-local ITPG. [[PairChecker]] is its restriction to NavL[PC].
  *
  * Numerical occurrence indicators are rewritten as in Algorithm 5 by
  * [[Repetition.unfold]] into concatenations and unions of smaller repeats,
  * which the one `Concat` case then evaluates; `r[0,_]` becomes
  * `r[0, |Ω|·|N∪E| − 1]`.
  *
  * Deviation, documented: the paper saturates `r[0,_]` at
  * `r[0, (|Ω|·|N∪E|)²]`. `[[r]]` is a relation on PTO, which has
  * `|Ω|·|N∪E|` temporal objects, and a shortest walk that witnesses a pair
  * of `r[0,_]` never visits one twice, so it takes at most `|Ω|·|N∪E| − 1`
  * steps of `r`. The tighter bound gives the same answers with a shallower
  * halving (on Figure 1: 186 instead of 34,969, depth 8 instead of 15).
  *
  * Algorithm 3's temporal-radius pruning applies to every concatenation and
  * path condition: a middle or end time point is scanned only within
  * [[radius]] of the time point it is reached from.
  *
  * Deviation, documented: the paper's algorithm re-derives every recursive
  * call to stay within polynomial *space* (that is the point of the PSPACE
  * upper bound); re-derivation makes it exponential-*time*, which is
  * untestable even on micro-graphs. We memoize sub-results — the same trade
  * the paper itself makes in Algorithm 3 for NavL[PC] — which changes
  * nothing about the answers.
  */
class TupleEvalSolver(omegaLo: Int, omegaHi: Int, objects: Map[Long, LocalObject]) {

  private val memo = mutable.HashMap.empty[(Long, Int, Long, Int, Path), Boolean]
  private val objIds: Seq[Long] = objects.keys.toSeq.sorted
  private val maxRadius = omegaHi - omegaLo
  private val saturation: Int = math.max(0, (omegaHi - omegaLo + 1) * objects.size - 1)

  /** An upper bound on `|t2 − t1|` over `[[r]]`: the number of N/P steps
    * `r` can take, capped at `|Ω| − 1`. A `?path` test stays put.
    */
  private def radius(r: Path): Int = math.min(maxRadius, r match {
    case Nx | Pv               => 1
    case F | B | Tst(_)        => 0
    case Concat(a, b)          => radius(a) + radius(b)
    case Union(a, b)           => math.max(radius(a), radius(b))
    case Repeat(a, _, Some(m)) => math.min(maxRadius.toLong, m.toLong * radius(a)).toInt
    case Repeat(_, _, None)    => maxRadius
  })

  private def existsAt(o: LocalObject, t: Int): Boolean =
    o.exist.exists { case (a, b) => a <= t && t <= b }

  private def propAt(o: LocalObject, p: String, t: Int): Option[String] =
    o.props.getOrElse(p, Nil).collectFirst { case (v, a, b) if a <= t && t <= b => v }

  /** `(o,t) ⊨ test`. */
  def checkTest(oid: Long, t: Int, test: Test): Boolean = {
    val o = objects(oid)
    test match {
      case IsNode       => o.isNode
      case IsEdge       => !o.isNode
      case HasLabel(l)  => o.label == l
      case PropIs(p, v) => propAt(o, p, t).contains(v)
      case Lt(k)        => t < k
      case Exists       => existsAt(o, t)
      case And(a, b)    => checkTest(oid, t, a) && checkTest(oid, t, b)
      case Or(a, b)     => checkTest(oid, t, a) || checkTest(oid, t, b)
      case Not(x)       => !checkTest(oid, t, x)
      case PathCond(p) =>
        val rad = radius(p)
        val ends = math.max(omegaLo, t - rad) to math.min(omegaHi, t + rad)
        objIds.exists(o2 => ends.exists(t2 => check(oid, t, o2, t2, p)))
    }
  }

  /** `(o1,t1,o2,t2) ∈ [[r]]_C`. */
  def check(o1: Long, t1: Int, o2: Long, t2: Int, r: Path): Boolean =
    memo.getOrElseUpdate((o1, t1, o2, t2, r), step(o1, t1, o2, t2, r))

  private def step(o1: Long, t1: Int, o2: Long, t2: Int, r: Path): Boolean = {
    val a = objects(o1)
    r match {
      case Nx => o1 == o2 && t2 == t1 + 1
      case Pv => o1 == o2 && t2 == t1 - 1
      case F =>
        t1 == t2 && ((!a.isNode && a.dst == o2) || (!objects(o2).isNode && objects(o2).src == o1))
      case B =>
        t1 == t2 && ((!a.isNode && a.src == o2) || (!objects(o2).isNode && objects(o2).dst == o1))
      case Tst(t) => o1 == o2 && t1 == t2 && checkTest(o1, t1, t)
      case Union(r1, r2) =>
        check(o1, t1, o2, t2, r1) || check(o1, t1, o2, t2, r2)
      case Concat(r1, r2) =>
        val (l1, l2) = (radius(r1), radius(r2))
        val mids = math.max(omegaLo, math.max(t1 - l1, t2 - l2)) to
                   math.min(omegaHi, math.min(t1 + l1, t2 + l2))
        objIds.exists(om => mids.exists(tm => check(o1, t1, om, tm, r1) && check(om, tm, o2, t2, r2)))
      // The rewritten term shares the memo entry of `rep`; its parts get their own.
      case rep: Repeat => step(o1, t1, o2, t2, unfold(rep))
    }
  }

  /** Algorithm 5: [[Repetition.unfold]], with `r[0,_]` saturated at
    * `r[0, |Ω|·|N∪E| − 1]` (see the class comment).
    */
  protected def unfold(rep: Repeat): Path = rep match {
    case Repeat(r, 0, None) => Repeat(r, 0, Some(saturation))
    case _                  => Repetition.unfold(rep)
  }
}

object TupleEvalSolver {
  /** Collect an [[Itpg]] to the driver (micro-graphs only). */
  def fromItpg(g: Itpg): TupleEvalSolver =
    new TupleEvalSolver(g.omegaLo, g.omegaHi, PairChecker.collectObjects(g))
}

/** Algorithm 3 of the paper (`TupleEvalSolveOnlyPC`): the
  * [[TupleEvalSolver]] restricted to the NavL[PC] fragment (path conditions
  * allowed, no numerical occurrence indicators).
  */
final class PairChecker(omegaLo: Int, omegaHi: Int, objects: Map[Long, LocalObject])
    extends TupleEvalSolver(omegaLo, omegaHi, objects) {

  override protected def unfold(rep: Repeat): Path = throw new UnsupportedOperationException(
    "PairChecker implements NavL[PC]: numerical occurrence indicators are not allowed")
}

object PairChecker {

  /** Collect an [[Itpg]] to the driver (small graphs only). */
  def fromItpg(g: Itpg): PairChecker =
    new PairChecker(g.omegaLo, g.omegaHi, collectObjects(g))

  /** Driver-side snapshot of all objects with coalesced ξ and σ. */
  def collectObjects(g: Itpg): Map[Long, LocalObject] = {
    val nodeRows = g.nodes.collect()
    val edgeRows = g.edges.collect()
    type Acc = (Boolean, String, Long, Long,
                mutable.ArrayBuffer[(Int, Int)],
                mutable.HashMap[String, mutable.ArrayBuffer[(String, Int, Int)]])
    val acc = mutable.HashMap.empty[Long, Acc]
    def add(id: Long, isNode: Boolean, label: String, src: Long, dst: Long,
            ts: Int, te: Int, props: Map[String, String]): Unit = {
      val a = acc.getOrElseUpdate(id,
        (isNode, label, src, dst, mutable.ArrayBuffer.empty, mutable.HashMap.empty))
      a._5 += ((ts, te))
      props.foreach { case (p, v) =>
        a._6.getOrElseUpdate(p, mutable.ArrayBuffer.empty) += ((v, ts, te))
      }
    }
    nodeRows.foreach { r =>
      add(r.getAs[Long]("id"), isNode = true, r.getAs[String]("label"), -1L, -1L,
          r.getAs[Int]("ts"), r.getAs[Int]("te"),
          Option(r.getAs[Map[String, String]]("props")).getOrElse(Map.empty))
    }
    edgeRows.foreach { r =>
      add(r.getAs[Long]("id"), isNode = false, r.getAs[String]("label"),
          r.getAs[Long]("src"), r.getAs[Long]("dst"),
          r.getAs[Int]("ts"), r.getAs[Int]("te"),
          Option(r.getAs[Map[String, String]]("props")).getOrElse(Map.empty))
    }
    def coalesceIv(iv: Seq[(Int, Int)]): Seq[(Int, Int)] =
      iv.sorted.foldLeft(List.empty[(Int, Int)]) {
        case ((a, b) :: rest, (c, d)) if c <= b + 1 => (a, math.max(b, d)) :: rest
        case (list, x)                              => x :: list
      }.reverse
    def coalesceVal(iv: Seq[(String, Int, Int)]): Seq[(String, Int, Int)] =
      iv.groupMap(_._1)(x => (x._2, x._3)).toSeq
        .flatMap { case (v, ivs) => coalesceIv(ivs).map { case (a, b) => (v, a, b) } }
    acc.map { case (id, (isN, lab, s, d, iv, pr)) =>
      id -> LocalObject(id, isN, lab, s, d, coalesceIv(iv.toSeq),
                        pr.map { case (p, vs) => p -> coalesceVal(vs.toSeq) }.toMap)
    }.toMap
  }
}
