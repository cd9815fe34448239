package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.tpg.Intervals
import Ast._

/** Evaluates a parsed MATCH clause into a *temporal binding table* (paper
  * Section IV): one column per bound variable `x` plus its time column
  * `x_time` (point mode), or a shared `[ts, te]` interval (coalesced mode,
  * available exactly for the structural-only fragment — paper Q1–Q5).
  *
  * Both modes join the chain's hops ([[Desugar.hops]]) left to right from
  * hop 0, which already applies the head element's test; only a query with
  * no segment reads that test alone. Columns: `_vI` (and `_wI`) per element.
  */
object MatchEvaluator {

  private def timeCol(v: String): String = v + "_time"

  /** Point-based binding table with one `(x, x_time)` column pair per bound
    * variable. Works for the whole language.
    */
  def bindingsPoints(ev: IntervalEvaluator, q: MatchQuery): DataFrame = {
    val ch = Desugar.chain(q)
    val hs = Desugar.hops(ch)
    def rel(i: Int, o1: String, t1: String): DataFrame = ev.evalPoints(hs(i))
      .select(col("o1").as(o1), col("t1").as(t1),
              col("o2").as(s"_v${i + 1}"), col("t2").as(s"_w${i + 1}"))
    var acc: DataFrame =
      if (hs.isEmpty) Intervals.points(ev.testIv(ch.tests.head), Seq("id"))
        .select(col("id").as("_v0"), col("t").as("_w0"))
      else rel(0, "_v0", "_w0")
    for (i <- 1 until hs.size) {
      val r = rel(i, "_jo", "_jt")
      acc = acc.join(r, acc(s"_v$i") === r("_jo") && acc(s"_w$i") === r("_jt"))
        .drop("_jo", "_jt")
    }
    val out = ch.vars.indices.flatMap { i =>
      ch.vars(i).map(v => Seq(col(s"_v$i").as(v), col(s"_w$i").as(timeCol(v)))).getOrElse(Nil)
    }
    acc.select(out: _*).distinct()
  }

  /** Temporally coalesced binding table: variable columns plus one shared
    * validity interval `[ts, te]` per row. Defined exactly when the query is
    * structural-only (no NEXT/PREV), where all bound times coincide —
    * the paper's Q1–Q5 output convention.
    */
  def bindingsCoalesced(ev: IntervalEvaluator, q: MatchQuery): DataFrame = {
    require(Desugar.isStructuralOnly(q), "coalesced bindings need a structural-only query")
    val ch = Desugar.chain(q)
    val hs = Desugar.hops(ch)
    // Structural hops have delta [0,0] and composition leaves bands
    // normalized, so both interval sides are equal: each band row is
    // (o1, o2, one shared interval).
    def rel(i: Int, o1: String, ts: String, te: String): DataFrame = ev.evalBands(hs(i))
      .select(col("o1").as(o1), col("o2").as(s"_v${i + 1}"), col("l1").as(ts), col("h1").as(te))
    var acc: DataFrame =
      if (hs.isEmpty) ev.testIv(ch.tests.head)
        .select(col("id").as("_v0"), col(Intervals.Ts), col(Intervals.Te))
      else rel(0, "_v0", Intervals.Ts, Intervals.Te)
    for (i <- 1 until hs.size) {
      val r = rel(i, "_jo", "_jts", "_jte")
      acc = acc.join(r, acc(s"_v$i") === r("_jo") &&
                        Intervals.overlaps(acc(Intervals.Ts), acc(Intervals.Te), r("_jts"), r("_jte")))
        .withColumn(Intervals.Ts, greatest(col(Intervals.Ts), col("_jts")))
        .withColumn(Intervals.Te, least(col(Intervals.Te), col("_jte")))
        .drop("_jo", "_jts", "_jte")
    }
    val named = ch.vars.zipWithIndex.collect { case (Some(v), i) => (v, i) }
    val varCols = named.map { case (v, i) => col(s"_v$i").as(v) }
    Intervals.coalesce(
      acc.select(varCols :+ col(Intervals.Ts) :+ col(Intervals.Te): _*),
      named.map(_._1))
  }
}
