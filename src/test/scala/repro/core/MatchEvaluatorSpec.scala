package repro.core

import repro.{SparkSpec, TestUtil}
import repro.tpg.FigureOne
import Ast._

/** MATCH-layer mechanics: chain construction, projections, coalesced-mode
  * preconditions, and multi-hop joins.
  */
class MatchEvaluatorSpec extends SparkSpec {

  lazy val g = FigureOne.itpg(spark)
  lazy val ev = new IntervalEvaluator(g)

  test("chain splits an edge pattern with a variable into two hops") {
    val ch = Desugar.chain(Parser.parseMatch(PaperQueries.q5))
    assert(ch.vars == Vector(Some("x"), Some("z"), Some("y")))
    assert(ch.rels == Vector(F, F))
    assert(ch.tests(1) == And(And(IsEdge, HasLabel("meets")), Exists))
  }

  test("chain keeps a variable-free edge pattern as one hop") {
    val ch = Desugar.chain(Parser.parseMatch("MATCH (x)-[:visits]->(y) ON g"))
    assert(ch.vars == Vector(Some("x"), Some("y")))
    assert(ch.rels.size == 1)
  }

  test("chain of an incoming edge pattern uses B") {
    val ch = Desugar.chain(Parser.parseMatch("MATCH (x)<-[z:meets]-(y) ON g"))
    assert(ch.rels == Vector(B, B))
  }

  test("incoming edge pattern reverses Q5") {
    val q = "MATCH (y:Person {risk = 'high'})<-[z:meets]-(x:Person {risk = 'low'}) ON g"
    val got = TestUtil.named6(MatchEvaluator.bindingsPoints(ev, Parser.parseMatch(q)),
                              Seq("x", "x_time", "z", "z_time", "y", "y_time"))
    assert(got == Set(
      ("n1", 5, "e1", 5, "n2", 5), ("n1", 6, "e1", 6, "n2", 6),
      ("n2", 1, "e2", 1, "n3", 1), ("n2", 2, "e2", 2, "n3", 2)))
  }

  test("undirected edge pattern matches both directions") {
    val q = "MATCH (x:Person {risk = 'high'})-[:meets]-(y:Person {risk = 'low'}) ON g"
    val got = TestUtil.named4(MatchEvaluator.bindingsPoints(ev, Parser.parseMatch(q)),
                              ("x", "x_time", "y", "y_time"))
    // high-risk x on either side of a live meets edge with low-risk y
    assert(got == Set(
      ("n2", 5, "n1", 5), ("n2", 6, "n1", 6), // reverse of e1
      ("n3", 1, "n2", 1), ("n3", 2, "n2", 2), // reverse of e2
      ("n3", 4, "n6", 4), ("n7", 5, "n6", 5), ("n7", 6, "n6", 6))) // e3, e4 forward
  }

  test("undirected edge pattern with a bound variable is rejected") {
    val q = Parser.parseMatch("MATCH (x)-[z:meets]-(y) ON g")
    assertThrows[IllegalArgumentException](Desugar.chain(q))
    assertThrows[IllegalArgumentException](Desugar.matchPath(q))
  }

  test("coalesced mode rejects temporal navigation") {
    assertThrows[IllegalArgumentException] {
      MatchEvaluator.bindingsCoalesced(ev, Parser.parseMatch(PaperQueries.q6))
    }
  }

  test("anonymous middle elements are dropped from the projection") {
    val q = "MATCH (x:Person {test = 'pos'})-/PREV/-()-[:visits]->(z) ON g"
    val df = MatchEvaluator.bindingsPoints(ev, Parser.parseMatch(q))
    assert(df.columns.toSet == Set("x", "x_time", "z", "z_time"))
    assert(TestUtil.named4(df, ("x", "x_time", "z", "z_time")) == Set(("n6", 9, "n4", 8)))
  }

  test("projection deduplicates bindings (distinct named tuples)") {
    // both rooms reachable twice in Q8's PREV* are four distinct rows, but
    // projecting only x collapses to one
    val q = "MATCH (x:Person {test = 'pos'})-/PREV*/FWD/:visits/FWD/-() ON g"
    val df = MatchEvaluator.bindingsPoints(ev, Parser.parseMatch(q))
    assert(TestUtil.named2(df, "x", "x_time") == Set(("n6", 9)))
  }

  test("coalesced and point modes agree after expansion on Q5") {
    val q = Parser.parseMatch(PaperQueries.q5)
    val co = MatchEvaluator.bindingsCoalesced(ev, q)
    val expanded = co.selectExpr("x", "z", "y", "explode(sequence(ts, te)) AS t")
      .selectExpr("x", "t AS x_time", "z", "t AS z_time", "y", "t AS y_time")
    val pts = MatchEvaluator.bindingsPoints(ev, q)
    assert(TestUtil.named6(expanded, Seq("x", "x_time", "z", "z_time", "y", "y_time")) ==
           TestUtil.named6(pts, Seq("x", "x_time", "z", "z_time", "y", "y_time")))
  }
}
