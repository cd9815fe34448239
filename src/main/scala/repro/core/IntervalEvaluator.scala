package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.tpg.{Band, Intervals, Itpg}
import Ast._

/** Interval-based TRPQ evaluation (paper Section VI, Steps 1–2 generalized).
  *
  * Every AST node denotes a *banded relation* (see [[repro.tpg.Band]]):
  * tests are identity bands over per-object satisfaction intervals, axes are
  * constant-delta bands, concatenation is band composition, and numerical
  * occurrence indicators are rewritten by [[Repetition.unfold]], with
  * `[0,_]` a [[Repetition.closure]] over the band algebra. All
  * interval reasoning (Allen intersection, delta shifting, coalescing)
  * happens on interval endpoints — no point expansion until
  * [[evalPoints]] (Step 3).
  *
  * The representation is exact for the whole of NavL[PC,NOI], so this
  * evaluator always agrees with [[PointEvaluator]] after expansion.
  */
final class IntervalEvaluator(val g: Itpg) {

  val lo: Int = g.omegaLo
  val hi: Int = g.omegaHi

  private val memo = scala.collection.mutable.HashMap.empty[Path, DataFrame]
  private val memoT = scala.collection.mutable.HashMap.empty[Test, DataFrame]

  private lazy val idBand: DataFrame = Band.identity(g.objects.select("id"), lo, hi).cache()

  /** `(id, lo, te)` for every object that satisfies `keep`. */
  private def objIv(keep: Column, te: Int = hi): DataFrame =
    g.objects.filter(keep).select(col("id"), lit(lo).as(Intervals.Ts), lit(te).as(Intervals.Te))

  private object ops extends RelOps {
    def id: DataFrame = idBand
    def compose(a: DataFrame, b: DataFrame): DataFrame = Band.compose(a, b)
    def union(a: DataFrame, b: DataFrame): DataFrame = Band.union(a, b)
  }

  /** Satisfaction intervals of `test`, as a coalesced `(id, ts, te)`. */
  def testIv(test: Test): DataFrame = memoT.getOrElseUpdate(test, test match {
    case IsNode       => objIv(col("kind") === "N")
    case IsEdge       => objIv(col("kind") === "E")
    case HasLabel(l)  => objIv(col("label") === l)
    case PropIs(p, v) => g.propIv(p, v)
    case Exists       => g.existence
    case Lt(k)        => objIv(lit(k > lo), math.min(k - 1, hi))
    case And(a, b) => Intervals.intersect(testIv(a), testIv(b), Seq("id"))
    case Or(a, b)  => Intervals.union(testIv(a), testIv(b), Seq("id"))
    case Not(x)    => Intervals.complement(testIv(x), g.objects.select("id"), Seq("id"), lo, hi)
    case PathCond(p) => Band.startsOf(evalBands(p))
  })

  /** `[[path]]_G` as a banded relation (Steps 1–2). */
  def evalBands(path: Path): DataFrame = memo.getOrElseUpdate(path, path match {
    case Tst(True) => idBand
    case Tst(t) => Band.fromIntervals(testIv(t))
    case F =>
      val e = g.objects.filter(col("kind") === "E")
      val fromSrc = e.select(col("src").as("o1"), col("id").as("o2"))
      val toDst   = e.select(col("id").as("o1"), col("dst").as("o2"))
      axisBand(fromSrc.unionByName(toDst), 0)
    case B => Band.converse(evalBands(F))
    case Nx =>
      if (hi == lo) idBand.filter(lit(false))
      else axisBand(g.objects.select(col("id").as("o1"), col("id").as("o2")), 1)
    case Pv => Band.converse(evalBands(Nx))
    case Concat(a, b)       => Band.compose(evalBands(a), evalBands(b))
    case Union(a, b)        => Band.union(evalBands(a), evalBands(b))
    case Repeat(p, 0, None) => Repetition.closure(evalBands(p), ops)
    case rep: Repeat        => evalBands(Repetition.unfold(rep))
  })

  /** Band for a pair relation shifted by a constant delta within Ω. */
  private def axisBand(pairs: DataFrame, delta: Int): DataFrame =
    pairs.select(
      col("o1"),
      lit(math.max(lo, lo - delta)).as("l1"), lit(math.min(hi, hi - delta)).as("h1"),
      col("o2"),
      lit(math.max(lo, lo + delta)).as("l2"), lit(math.min(hi, hi + delta)).as("h2"),
      lit(delta).as("dl"), lit(delta).as("dh"))

  /** Step 3: the point-based relation `(o1, t1, o2, t2)`. */
  def evalPoints(path: Path): DataFrame = Band.toPoints(evalBands(path))
}
