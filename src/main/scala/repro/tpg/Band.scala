package repro.tpg

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Banded relations: the interval-based intermediate representation used by
  * the interval evaluator (paper Section VI, Steps 1–2, generalized).
  *
  * A *band* row `(o1, l1, h1, o2, l2, h2, dl, dh)` denotes the set of
  * temporal-object pairs
  *
  * {{{ {(o1,t1,o2,t2) | t1 ∈ [l1,h1], t2 ∈ [l2,h2], t2 − t1 ∈ [dl,dh]} }}}
  *
  * A banded relation (a DataFrame of such rows) denotes the union of its
  * bands. Bands are closed — and, crucially, *exact* — under the operations
  * needed for NavL[PC,NOI]: identity/tests, axes, composition, and union
  * (DESIGN.md §3 sketches the exactness argument for composition).
  */
object Band {

  /** Canonical column order of a banded relation. */
  val cols: Seq[String] = Seq("o1", "l1", "h1", "o2", "l2", "h2", "dl", "dh")

  /** Identity bands over per-object satisfaction intervals `(o, ts, te)` —
    * the banded form of a `test` (paper: `[[test]]_G` stays on the object).
    */
  def fromIntervals(iv: DataFrame): DataFrame =
    iv.select(col("id").as("o1"), col(Intervals.Ts).as("l1"), col(Intervals.Te).as("h1"),
              col("id").as("o2"), col(Intervals.Ts).as("l2"), col(Intervals.Te).as("h2"),
              lit(0).as("dl"), lit(0).as("dh"))

  /** Tighten every band to path-consistent canonical form in one projection:
    * one ordered pass (delta, start, end, delta) reaches the fixpoint of this
    * 2-variable difference constraint system. An empty band keeps a crossed bound.
    */
  private def tighten(df: DataFrame): DataFrame = {
    var (l1, h1, l2, h2, dl, dh) = (col("l1"), col("h1"), col("l2"), col("h2"), col("dl"), col("dh"))
    dl = greatest(dl, l2 - h1)
    dh = least(dh, h2 - l1)
    l1 = greatest(l1, l2 - dh)
    h1 = least(h1, h2 - dl)
    l2 = greatest(l2, l1 + dl)
    h2 = least(h2, h1 + dh)
    dl = greatest(dl, l2 - h1)
    dh = least(dh, h2 - l1)
    df.select(col("o1"), l1.as("l1"), h1.as("h1"), col("o2"), l2.as("l2"), h2.as("h2"),
              dl.as("dl"), dh.as("dh"))
  }

  /** Tighten a banded relation (see [[tighten]]) and drop empty bands. */
  def normalize(df: DataFrame): DataFrame =
    tighten(df).filter(col("l1") <= col("h1") && col("l2") <= col("h2") && col("dl") <= col("dh"))

  /** Exact band composition: `{(o1,t1,o3,t3) | ∃(o2,t2): (o1,t1,o2,t2) ∈ a
    * and (o2,t2,o3,t3) ∈ b}`. Joins on the shared middle object with a
    * nonempty overlap of the middle time intervals, then applies the band
    * composition formula and tightens. Precondition: both inputs are
    * normalized, as every `IntervalEvaluator.evalBands` result is. Then each
    * `t2` of the overlap has a witness on both sides, so no output band is
    * empty. The output is normalized but may repeat rows; `union`,
    * `toPoints` and the binding tables deduplicate.
    */
  def compose(a: DataFrame, b: DataFrame): DataFrame = {
    val l = a.select(cols.map(c => col(c).as("a_" + c)): _*)
    val r = b.select(cols.map(c => col(c).as("b_" + c)): _*)
    val j = l.join(r,
      l("a_o2") === r("b_o1") &&
        Intervals.overlaps(l("a_l2"), l("a_h2"), r("b_l1"), r("b_h1")))
    val u = greatest(col("a_l2"), col("b_l1"))
    val v = least(col("a_h2"), col("b_h1"))
    tighten(j.select(
      col("a_o1").as("o1"),
      greatest(col("a_l1"), u - col("a_dh")).as("l1"),
      least(col("a_h1"), v - col("a_dl")).as("h1"),
      col("b_o2").as("o2"),
      greatest(col("b_l2"), u + col("b_dl")).as("l2"),
      least(col("b_h2"), v + col("b_dh")).as("h2"),
      (col("a_dl") + col("b_dl")).as("dl"),
      (col("a_dh") + col("b_dh")).as("dh")))
  }

  /** Converse band relation: `(o2, [l2,h2], o1, [l1,h1], [−dh,−dl])` for
    * each band, so `B` is `F` and `P` is `N` with sides swapped.
    */
  def converse(df: DataFrame): DataFrame =
    df.select(col("o2").as("o1"), col("l2").as("l1"), col("h2").as("h1"),
              col("o1").as("o2"), col("l1").as("l2"), col("h1").as("h2"),
              (-col("dh")).as("dl"), (-col("dl")).as("dh"))

  /** Band union (set of band rows; denotation is the union of the bands). */
  def union(a: DataFrame, b: DataFrame): DataFrame =
    a.select(cols.map(col): _*).unionByName(b.select(cols.map(col): _*)).distinct()

  /** Step 3's one expansion step: a time column `t` over `[l, h]`, narrowed
    * to `[prev + dl, prev + dh]` when it follows an expanded time `prev`.
    * Empty ranges are dropped first, because `sequence` counts down when its
    * start is larger than its end.
    */
  def explodeWithin(df: DataFrame, t: String, l: Column, h: Column,
                    after: Option[(Column, Column, Column)] = None): DataFrame = {
    val (lo, hi) = after.fold((l, h)) { case (p, dl, dh) => (greatest(l, p + dl), least(h, p + dh)) }
    df.filter(lo <= hi).withColumn(t, explode(sequence(lo, hi)))
  }

  /** Step 3: expand to the point-based relation `(o1, t1, o2, t2)`. */
  def toPoints(df: DataFrame): DataFrame =
    explodeWithin(explodeWithin(df, "t1", col("l1"), col("h1")), "t2", col("l2"), col("h2"),
                  Some((col("t1"), col("dl"), col("dh")))).select("o1", "t1", "o2", "t2").distinct()

  /** Start-side projection `(id, ts, te)` — the temporal objects from which
    * the relation is nonempty; used for `?path` tests. Tightening guarantees
    * every `t1 ∈ [l1,h1]` has a witness, so the projection is exact.
    */
  def startsOf(df: DataFrame): DataFrame =
    Intervals.coalesce(
      df.select(col("o1").as("id"), col("l1").as(Intervals.Ts), col("h1").as(Intervals.Te)),
      Seq("id"))
}
