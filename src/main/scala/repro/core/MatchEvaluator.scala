package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.tpg.{Band, Intervals}
import Ast.MatchQuery
import Desugar.{Chain, Piece}

/** Evaluates a parsed MATCH clause into a *temporal binding table* (paper
  * Section IV): one column per bound variable `x` plus its time column
  * `x_time` (point mode), or a shared `[ts, te]` interval (coalesced mode,
  * available exactly for the structural-only fragment — paper Q1–Q5).
  *
  * Both modes read one banded table. [[Desugar.pieces]] cuts the chain at
  * its bound elements and at both ends; each piece is one banded relation,
  * and the pieces join left to right on the shared object where their
  * intervals overlap. A row keeps `(_vI, _lI, _hI)` per cut position `I`
  * and the delta range `[_dlI, _dhI]` of the piece that ends at `I`. Points
  * appear only at the end (paper Section VI, Step 3), for bound positions.
  */
object MatchEvaluator {

  /** Side `s` (1 or 2) of a band as the columns of position `i`. */
  private def at(i: String, s: Int): Seq[Column] =
    Seq(col(s"o$s").as(s"_v$i"), col(s"l$s").as(s"_l$i"), col(s"h$s").as(s"_h$i"))

  /** Cut positions in chain order and the banded table over them. Every
    * band is normalized, so each time of a piece's end interval has a
    * witness at its other end; intersecting intervals at a join keeps that,
    * so an anonymous end needs no expansion.
    */
  private def banded(ev: IntervalEvaluator, ch: Chain): (Vector[Int], DataFrame) = {
    val ps = Desugar.pieces(ch)
    def end(p: Piece): Seq[Column] =
      if (p.to == p.from) Nil
      else at(p.to.toString, 2) ++ Seq(col("dl").as(s"_dl${p.to}"), col("dh").as(s"_dh${p.to}"))
    val first = ev.evalBands(ps.head.path).select(at("0", 1) ++ end(ps.head): _*)
    val table = ps.tail.foldLeft(first) { (acc, p) =>
      val r = ev.evalBands(p.path).select(at("j", 1) ++ end(p): _*)
      val (v, l, h) = (s"_v${p.from}", s"_l${p.from}", s"_h${p.from}")
      acc.join(r, acc(v) === r("_vj") && Intervals.overlaps(acc(l), acc(h), r("_lj"), r("_hj")))
        .withColumn(l, greatest(col(l), col("_lj")))
        .withColumn(h, least(col(h), col("_hj")))
        .drop("_vj", "_lj", "_hj")
    }
    ((0 +: ps.map(_.to)).distinct, table)
  }

  /** Point-based binding table with one `(x, x_time)` column pair per bound
    * variable. Works for the whole language. Each bound time ranges over its
    * interval, within the delta range after the previous cut position when
    * that one is bound too.
    */
  def bindingsPoints(ev: IntervalEvaluator, q: MatchQuery): DataFrame = {
    val ch = Desugar.chain(q)
    val (cuts, table) = banded(ev, ch)
    val bound = cuts.indices.filter(j => ch.vars(cuts(j)).isDefined)
    val expanded = bound.foldLeft(table) { (df, j) =>
      val c = cuts(j)
      val after = Option.when(j > 0 && ch.vars(cuts(j - 1)).isDefined)(
        (col(s"_t${cuts(j - 1)}"), col(s"_dl$c"), col(s"_dh$c")))
      Band.explodeWithin(df, s"_t$c", col(s"_l$c"), col(s"_h$c"), after)
    }
    expanded.select(bound.map(cuts).flatMap { c =>
      val v = ch.vars(c).get
      Seq(col(s"_v$c").as(v), col(s"_t$c").as(v + "_time"))
    }: _*).distinct()
  }

  /** Temporally coalesced binding table: variable columns plus one shared
    * validity interval `[ts, te]` per row. Defined exactly when the query is
    * structural-only (no NEXT/PREV), where all bound times coincide —
    * the paper's Q1–Q5 output convention.
    */
  def bindingsCoalesced(ev: IntervalEvaluator, q: MatchQuery): DataFrame = {
    require(Desugar.isStructuralOnly(q), "coalesced bindings need a structural-only query")
    val ch = Desugar.chain(q)
    val (cuts, table) = banded(ev, ch)
    // Every structural band has delta [0,0], so a row's cut positions share
    // one time, in the intersection of their intervals.
    val named = cuts.collect { case c if ch.vars(c).isDefined => (ch.vars(c).get, c) }
    Intervals.coalesce(
      table.select(named.map { case (v, c) => col(s"_v$c").as(v) } :+
                   cuts.map(c => col(s"_l$c")).reduce(greatest(_, _)).as(Intervals.Ts) :+
                   cuts.map(c => col(s"_h$c")).reduce(least(_, _)).as(Intervals.Te): _*)
        .filter(col(Intervals.Ts) <= col(Intervals.Te)),
      named.map(_._1))
  }
}
