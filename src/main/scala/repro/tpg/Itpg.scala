package repro.tpg

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Interval-timestamped temporal property graph (paper Def. A.1 and the
  * storage layout of Section VI).
  *
  * `nodes` / `edges` hold one *state row* per maximal interval during which
  * the object existed with unchanged property values:
  *
  * {{{
  * nodes: id LONG, label STRING, props MAP<STRING,STRING>, ts INT, te INT
  * edges: id LONG, src LONG, dst LONG, label STRING, props MAP, ts INT, te INT
  * }}}
  *
  * This is exactly the paper's `Nodes(id, label, properties, time)` /
  * `Edges(id, src, tgt, label, properties, time)` representation. The
  * formal ξ (existence intervals) and σ (valued property intervals) are
  * derived, coalesced, by [[existence]] and [[propIv]].
  *
  * Node and edge ids share one `Long` id space and must be disjoint.
  */
final case class Itpg(omegaLo: Int, omegaHi: Int, nodes: DataFrame, edges: DataFrame) {

  /** One row per object: `id, kind ('N'|'E'), label, src, dst` (src/dst null
    * for nodes). The object universe PTO(G) projects from this × Ω.
    */
  lazy val objects: DataFrame = {
    val n = nodes.select(col("id"), lit("N").as("kind"), col("label"),
                         lit(null).cast("long").as("src"), lit(null).cast("long").as("dst"))
    val e = edges.select(col("id"), lit("E").as("kind"), col("label"), col("src"), col("dst"))
    n.unionByName(e).distinct().cache()
  }

  /** Coalesced `(id, ts, te)` over the node and edge state rows that satisfy
    * `cond`, which may read `id`, `kind` ('N'|'E'), `label` and `props`. Such
    * a condition is constant within a state row, so its satisfaction
    * intervals are the rows it holds on, coalesced — one scan, no joins.
    */
  def statesWhere(cond: Column): DataFrame = {
    def rows(df: DataFrame, kind: String) =
      df.select(col("id"), lit(kind).as("kind"), col("label"), col("props"),
                col(Intervals.Ts), col(Intervals.Te))
    Intervals.coalesce(
      rows(nodes, "N").unionByName(rows(edges, "E")).filter(cond)
        .select(col("id"), col(Intervals.Ts), col(Intervals.Te)),
      Seq("id"))
  }

  /** ξ as a coalesced interval relation `(id, ts, te)`. */
  lazy val existence: DataFrame = statesWhere(lit(true)).cache()

  /** σ(o, p) = v as a coalesced `(id, ts, te)` relation. */
  def propIv(p: String, v: String): DataFrame = statesWhere(element_at(col("props"), p) === v)

  /** Point-based expansion: the canonical TPG this ITPG encodes. */
  def toTpg: Tpg = {
    def expand(df: DataFrame) =
      Intervals.points(df, df.columns.toSeq.filterNot(Set(Intervals.Ts, Intervals.Te)))
    Tpg(omegaLo, omegaHi, expand(nodes), expand(edges))
  }

  /** Model-validity violations (empty when the graph is a legal ITPG):
    * interval sanity, Ω containment, per-object label/endpoint consistency,
    * coalescedness of state rows, and the two TPG constraints — every edge
    * interval within both endpoints' existence, properties only while the
    * object exists (the latter holds by construction of state rows).
    */
  def validate(): Seq[String] = {
    val errs = scala.collection.mutable.ArrayBuffer.empty[String]
    def nonEmpty(df: DataFrame, msg: String): Unit = {
      val c = df.limit(1).count()
      if (c > 0) errs += msg
    }
    val all = nodes.select(col("id"), col(Intervals.Ts), col(Intervals.Te))
      .unionByName(edges.select(col("id"), col(Intervals.Ts), col(Intervals.Te)))
    nonEmpty(all.filter(col(Intervals.Ts) > col(Intervals.Te)), "interval with ts > te")
    nonEmpty(all.filter(col(Intervals.Ts) < omegaLo || col(Intervals.Te) > omegaHi),
             "interval outside the temporal domain")
    nonEmpty(objects.groupBy("id").count().filter(col("count") > 1),
             "object id with inconsistent kind/label/endpoints")
    nonEmpty(nodes.join(edges.select("id"), Seq("id")), "node and edge share an id")
    // State rows of one object must not overlap (adjacency is fine — a state
    // change produces adjacent rows).
    val a = all.select(col("id"), col(Intervals.Ts).as("s1"), col(Intervals.Te).as("e1"))
    val b = all.select(col("id"), col(Intervals.Ts).as("s2"), col(Intervals.Te).as("e2"))
    nonEmpty(a.join(b, Seq("id")).filter(col("s1") < col("s2") && col("s2") <= col("e1")),
             "overlapping state rows for one object")
    // Edge intervals covered by both endpoints' existence intervals.
    val nodeIv = Intervals.coalesce(
      nodes.select(col("id"), col(Intervals.Ts), col(Intervals.Te)), Seq("id"))
    def covered(endCol: String): DataFrame =
      edges.select(col("id"), col(endCol).as("nid"), col(Intervals.Ts).as("es"), col(Intervals.Te).as("ee"))
        .join(nodeIv.select(col("id").as("nid"), col(Intervals.Ts).as("ns"), col(Intervals.Te).as("ne")), Seq("nid"))
        .filter(col("ns") <= col("es") && col("ee") <= col("ne"))
        .select(col("id"), col("nid"), col("es"), col("ee"))
    def uncovered(endCol: String): DataFrame =
      edges.select(col("id"), col(endCol).as("nid"), col(Intervals.Ts).as("es"), col(Intervals.Te).as("ee"))
        .join(covered(endCol), Seq("id", "nid", "es", "ee"), "left_anti")
    nonEmpty(uncovered("src"), "edge interval not covered by source node existence")
    nonEmpty(uncovered("dst"), "edge interval not covered by destination node existence")
    errs.toSeq
  }
}

object Itpg {

  /** Build an ITPG from point-based state rows by temporal coalescing:
    * point rows with equal `(id, label, props[, src, dst])` merge into
    * maximal intervals. Inverse of [[Itpg.toTpg]] up to row order.
    */
  def fromTpg(t: Tpg): Itpg = {
    def collapse(df: DataFrame, extra: Seq[String]): DataFrame = {
      // Maps are not grouping keys in Spark SQL; group on a canonical
      // (sorted-entries) JSON rendering and keep a representative map.
      val keyed = df.withColumn("_pk", to_json(array_sort(map_entries(col("props")))))
        .withColumn(Intervals.Ts, col("t")).withColumn(Intervals.Te, col("t"))
      val keys = Seq("id", "label", "_pk") ++ extra
      val iv = Intervals.coalesce(keyed.drop("t"), keys)
      // maps cannot appear in distinct/set operations; pick a representative
      val rep = keyed.groupBy(keys.map(col): _*).agg(first(col("props")).as("props"))
      iv.join(rep, keys).drop("_pk")
        .select((Seq("id") ++ extra ++ Seq("label", "props", Intervals.Ts, Intervals.Te)).map(col): _*)
    }
    Itpg(t.omegaLo, t.omegaHi,
         collapse(t.nodesP, Nil),
         collapse(t.edgesP, Seq("src", "dst")))
  }
}

/** Point-based temporal property graph (paper Def. III.1): one row per
  * temporal object state, `t` a single time point.
  */
final case class Tpg(omegaLo: Int, omegaHi: Int, nodesP: DataFrame, edgesP: DataFrame)
