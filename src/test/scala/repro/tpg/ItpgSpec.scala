package repro.tpg

import repro.{SparkSpec, TestGraphs, TestUtil}

/** TPG/ITPG model: derived relations, conversions, and validity checking. */
class ItpgSpec extends SparkSpec {

  lazy val g: Itpg = FigureOne.itpg(spark)

  test("Figure-1 graph is a valid ITPG") {
    assert(g.validate().isEmpty)
  }

  test("objects: 7 nodes and 10 edges with stable labels") {
    val objs = g.objects.collect()
    assert(objs.count(_.getAs[String]("kind") == "N") == 7)
    assert(objs.count(_.getAs[String]("kind") == "E") == 10)
    val byId = objs.map(r => r.getAs[Long]("id") -> r.getAs[String]("label")).toMap
    assert(byId(FigureOne.nodeIds("n4")) == "Room")
    assert(byId(FigureOne.edgeIds("e5")) == "cohabits")
  }

  test("existence coalesces state rows: ξ(n2) = {[1,9]} (Appendix A)") {
    assert(TestUtil.ivs(g.existence.filter(s"id = ${FigureOne.nodeIds("n2")}")) ==
           Set((2L, 1, 9)))
  }

  test("existence of n6 spans both test states: {[2,9]}") {
    assert(TestUtil.ivs(g.existence.filter(s"id = ${FigureOne.nodeIds("n6")}")) ==
           Set((6L, 2, 9)))
  }

  test("σ(n2, risk) = {(low,[1,4]), (high,[5,9])} (Appendix A)") {
    def risk(v: String) = TestUtil.ivs(g.propIv("risk", v).filter("id = 2"))
    assert(risk("low") == Set((2L, 1, 4)))
    assert(risk("high") == Set((2L, 5, 9)))
  }

  test("σ(·, test) = pos only for (n6, [9,9])") {
    assert(TestUtil.ivs(g.propIv("test", "pos")) == Set((6L, 9, 9)))
  }

  test("propIv coalesces across state rows: name Bob spans [1,9]") {
    assert(TestUtil.ivs(g.propIv("name", "Bob")) == Set((2L, 1, 9)))
  }

  test("toTpg expands to one row per time point") {
    val t = g.toTpg
    assert(t.nodesP.filter("id = 1").count() == 9) // n1 exists [1,9]
    assert(t.edgesP.filter("id = 101").count() == 3) // e1 at {3, 5, 6}
  }

  test("point existence relation matches interval existence") {
    val t = g.toTpg
    val fromIv = Intervals.points(g.existence, Seq("id"))
    assert(TestUtil.pairs(t.nodesP.select("id", "t").unionByName(t.edgesP.select("id", "t"))) ==
           TestUtil.pairs(fromIv))
  }

  test("fromTpg(toTpg) round-trips the state rows") {
    val back = Itpg.fromTpg(g.toTpg)
    def key(df: org.apache.spark.sql.DataFrame) =
      df.selectExpr("id", "label", "to_json(array_sort(map_entries(props))) AS pk", "ts", "te")
        .collect().map(_.toSeq).toSet
    assert(key(back.nodes) == key(g.nodes))
    val backE = back.edges.selectExpr("id", "src", "dst", "label", "ts", "te")
      .collect().map(_.toSeq).toSet
    val origE = g.edges.selectExpr("id", "src", "dst", "label", "ts", "te")
      .collect().map(_.toSeq).toSet
    assert(backE == origE)
  }

  test("micro-graphs validate too") {
    assert(TestGraphs.tiny(spark).validate().isEmpty)
    assert(TestGraphs.room(spark).validate().isEmpty)
    assert(TestGraphs.random(spark, 3).validate().isEmpty)
  }

  test("validate flags an edge outside its endpoints' existence") {
    val bad = FigureOne.build(spark, 0, 5,
      nodes = Seq(NodeRow(1, "A", Map.empty, 0, 2), NodeRow(2, "A", Map.empty, 0, 5)),
      edges = Seq(EdgeRow(10, 1, 2, "r", Map.empty, 1, 4)))
    assert(bad.validate().exists(_.contains("source node existence")))
  }

  test("validate flags overlapping state rows") {
    val bad = FigureOne.build(spark, 0, 5,
      nodes = Seq(NodeRow(1, "A", Map("p" -> "u"), 0, 3), NodeRow(1, "A", Map("p" -> "v"), 2, 5)),
      edges = Seq.empty)
    assert(bad.validate().exists(_.contains("overlapping state rows")))
  }

  test("validate flags a node/edge id collision") {
    val bad = FigureOne.build(spark, 0, 5,
      nodes = Seq(NodeRow(1, "A", Map.empty, 0, 5), NodeRow(2, "A", Map.empty, 0, 5)),
      edges = Seq(EdgeRow(1, 1, 2, "r", Map.empty, 0, 5)))
    assert(bad.validate().exists(_.contains("share an id")))
  }

  test("validate flags intervals outside the temporal domain") {
    val bad = FigureOne.build(spark, 2, 5,
      nodes = Seq(NodeRow(1, "A", Map.empty, 0, 5)), edges = Seq.empty)
    assert(bad.validate().exists(_.contains("outside the temporal domain")))
  }
}
