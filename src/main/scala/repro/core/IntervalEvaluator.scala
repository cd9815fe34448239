package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.tpg.{Band, Intervals, Itpg}
import Ast._

/** Interval-based TRPQ evaluation (paper Section VI, Steps 1–2 generalized).
  *
  * Every AST node denotes a *banded relation* (see [[repro.tpg.Band]]):
  * tests are identity bands over per-object satisfaction intervals, `F`/`B`
  * are delta-`[0,0]` bands over Ω, concatenation is band composition, and
  * numerical occurrence indicators are rewritten by [[Repetition.unfold]],
  * with `[0,_]` a squaring closure over the band algebra. Temporal
  * navigation is always a closed-form run: a step `N/φ` or `P/φ` (a bare
  * `N` or `P` has φ = true) is the run `(N/φ)[1,1]` or `(P/φ)[1,1]`, and a
  * run `(N/φ)[n,m]` or `(P/φ)[n,m]` skips the rewrite. Either is one band
  * per maximal φ-interval (DESIGN.md §3). All interval reasoning (Allen
  * intersection, delta shifting, coalescing) happens on interval endpoints —
  * no point expansion until [[evalPoints]] (Step 3).
  *
  * The representation is exact for the whole of NavL[PC,NOI], so this
  * evaluator always agrees with [[PointEvaluator]] after expansion.
  */
final class IntervalEvaluator(val g: Itpg) {

  val lo: Int = g.omegaLo
  val hi: Int = g.omegaHi

  private val MaxIter = 64

  private val memo = scala.collection.mutable.HashMap.empty[Path, DataFrame]
  private val memoT = scala.collection.mutable.HashMap.empty[Test, DataFrame]

  private lazy val idBand: DataFrame = Band.fromIntervals(testIv(True)).cache()

  /** `(id, lo, te)` for every object that satisfies `keep`. */
  private def objIv(keep: Column, te: Int = hi): DataFrame =
    g.objects.filter(keep).select(col("id"), lit(lo).as(Intervals.Ts), lit(te).as(Intervals.Te))

  /** Atoms that are constant within one state row, as a condition over
    * [[Itpg.objects]] or the state rows of [[Itpg.statesWhere]].
    */
  private val stateCond: PartialFunction[Test, Column] = {
    case IsNode       => col("kind") === "N"
    case IsEdge       => col("kind") === "E"
    case HasLabel(l)  => col("label") === l
    case PropIs(p, v) => element_at(col("props"), p) === v
    case Exists       => lit(true)
  }

  /** Satisfaction intervals of `test`, as a coalesced `(id, ts, te)`. */
  def testIv(test: Test): DataFrame = memoT.getOrElseUpdate(test, test match {
    case True => objIv(lit(true))
    case IsNode | IsEdge | HasLabel(_) => objIv(stateCond(test))
    case PropIs(p, v) => g.propIv(p, v)
    case Exists       => g.existence
    case Lt(k)        => objIv(lit(k > lo), math.min(k - 1, hi))
    case And(a, b) =>
      // State-local conjuncts that hold only while the object exists (∃,
      // p↦v) are one scan of the state rows; the rest intersect with it.
      val (local, rest) = conjuncts(test).distinct.partition(stateCond.isDefinedAt)
      if (local.exists { case Exists | PropIs(_, _) => true; case _ => false })
        rest.map(testIv).foldLeft(g.statesWhere(local.map(stateCond).reduce(_ && _)))(
          Intervals.intersect(_, _, Seq("id")))
      else Intervals.intersect(testIv(a), testIv(b), Seq("id"))
    case Or(a, b)  => Intervals.union(testIv(a), testIv(b), Seq("id"))
    case Not(x)    => Intervals.complement(testIv(x), g.objects.select("id"), Seq("id"), lo, hi)
    case PathCond(p) => Band.startsOf(evalBands(p))
  })

  /** `[[path]]_G` as a banded relation (Steps 1–2). `Run` covers `N` and
    * `P`, which the exhaustivity check cannot see through an extractor.
    */
  def evalBands(path: Path): DataFrame = memo.getOrElseUpdate(path, (path: @unchecked) match {
    case Tst(True) => idBand
    case Tst(t) => Band.fromIntervals(testIv(t))
    case F =>
      val e = g.objects.filter(col("kind") === "E")
      val fromSrc = e.select(col("src").as("o1"), col("id").as("o2"))
      val toDst   = e.select(col("id").as("o1"), col("dst").as("o2"))
      axisBand(fromSrc.unionByName(toDst))
    case B => Band.converse(evalBands(F))
    case Run(axis, phi) => runBands(axis == Nx, conj(phi), 1, 1)
    case Concat(Tst(a), Tst(b))            => evalBands(Tst(conj(Seq(a, b))))
    case Concat(Concat(p, Tst(a)), Tst(b)) => evalBands(Concat(p, Tst(conj(Seq(a, b)))))
    case Concat(a, b)       => Band.compose(evalBands(a), evalBands(b))
    case Union(a, b)        => Band.union(evalBands(a), evalBands(b))
    case Repeat(Run(axis, phi), n, m) if !m.contains(0) =>
      runBands(axis == Nx, conj(phi), n, m.getOrElse(hi - lo))
    case Repeat(p, 0, None) => closure(evalBands(p))
    case rep: Repeat        => evalBands(Repetition.unfold(rep))
  })

  /** `N` or `P` followed by a chain of tests `φ₁/…/φₖ`, as the axis and
    * the tests; a bare axis has no tests (φ = true). One step is the run
    * `(N/φ)[1,1]` or `(P/φ)[1,1]`.
    */
  private object Run {
    def unapply(p: Path): Option[(Path, Seq[Test])] = p match {
      case Nx | Pv                     => Some((p, Nil))
      case Concat(Run(ax, ts), Tst(t)) => Some((ax, ts :+ t))
      case _                           => None
    }
  }

  private def conjuncts(t: Test): Seq[Test] = t match {
    case And(a, b) => conjuncts(a) ++ conjuncts(b)
    case _         => Seq(t)
  }

  /** The conjunction of `ts` without duplicate or `true` conjuncts. */
  private def conj(ts: Seq[Test]): Test =
    ts.flatMap(conjuncts).filterNot(_ == True).distinct.reduceOption[Test](And).getOrElse(True)

  /** `(N/φ)[n,m]` (`fwd`) or `(P/φ)[n,m]` (m ≥ 1) in closed form:
    * `(N/φ)^k` joins `(o,t)` to `(o,t+k)` exactly when `t+1 … t+k` lie in
    * one maximal φ-interval `[a,b]`, so each interval of `testIv(φ)` is the
    * band `(o, [max(lo,a−1), b−1], o, [a,b], [max(n,1), m])`; `P` mirrors it.
    * An interval no step reaches (`b = lo` for `N`, `a = hi` for `P`) gives
    * an empty band, which normalization drops: on a one-point Ω every step
    * is empty.
    */
  private def runBands(fwd: Boolean, phi: Test, n: Int, m: Int): DataFrame = {
    val (a, b, k) = (col(Intervals.Ts), col(Intervals.Te), math.max(n, 1))
    val (l1, h1, dl, dh) =
      if (fwd) (greatest(a - 1, lit(lo)), b - 1, k, m)
      else (a + 1, least(b + 1, lit(hi)), -m, -k)
    val runs = Band.normalize(testIv(phi).select(
      col("id").as("o1"), l1.as("l1"), h1.as("h1"),
      col("id").as("o2"), a.as("l2"), b.as("h2"), lit(dl).as("dl"), lit(dh).as("dh")))
    if (n == 0) Band.union(idBand, runs) else runs
  }

  /** `R[0,_]` — reflexive-transitive closure by repeated squaring to a
    * fixpoint, checkpointing each iterate to cut its lineage. Union only
    * ever grows the row set, so an unchanged count is an exact convergence
    * test.
    */
  private def closure(r: DataFrame): DataFrame = {
    var s = Band.union(idBand, r).localCheckpoint()
    var n = s.count()
    var iter = 0
    var done = false
    while (!done) {
      iter += 1
      require(iter <= MaxIter, s"closure did not converge within $MaxIter squarings")
      val s2 = Band.union(s, Band.compose(s, s)).localCheckpoint()
      val n2 = s2.count()
      if (n2 == n) done = true
      s = s2; n = n2
    }
    s
  }

  /** Band for a structural pair relation: both times range over Ω, delta 0. */
  private def axisBand(pairs: DataFrame): DataFrame =
    pairs.select(col("o1"), lit(lo).as("l1"), lit(hi).as("h1"),
                 col("o2"), lit(lo).as("l2"), lit(hi).as("h2"), lit(0).as("dl"), lit(0).as("dh"))

  /** Step 3: the point-based relation `(o1, t1, o2, t2)`. */
  def evalPoints(path: Path): DataFrame = Band.toPoints(evalBands(path))
}
