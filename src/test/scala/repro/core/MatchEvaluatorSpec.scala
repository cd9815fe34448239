package repro.core

import org.apache.spark.sql.catalyst.plans.logical.Generate
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.{SparkSpec, TestGraphs, TestUtil}
import repro.tpg.FigureOne
import Ast._

/** MATCH-layer mechanics: chain construction, projections, coalesced-mode
  * preconditions, multi-hop joins, the expansion of bound times only, and
  * generated chains checked against point semantics.
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

  test("a variable bound twice is rejected, naming the variable") {
    Seq("MATCH (x)-/NEXT/-(x) ON g", "MATCH (x)-[x:meets]->(y) ON g").foreach { q =>
      val e = intercept[IllegalArgumentException](Desugar.chain(Parser.parseMatch(q)))
      assert(e.getMessage.contains("variable x is bound twice"), q)
    }
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

  test("only bound times are expanded: Q9's plan explodes x_time alone, Q6's both") {
    def explodes(q: String): Int = noJobs("binding-plans") {
      MatchEvaluator.bindingsPoints(new IntervalEvaluator(g), Parser.parseMatch(q))
        .queryExecution.optimizedPlan.collect { case gen: Generate => gen }.size
    }
    assert(explodes(PaperQueries.q9) == 1)
    assert(explodes(PaperQueries.q6) == 2)
  }

  // ---- differential check against per-hop point sets ---------------------

  /** A segment that leads from a node to a node; `LABEL` stands for the
    * graph's edge label and `Z` for a fresh edge variable.
    */
  private val genSegment: Gen[String] = {
    val temporal = Gen.oneOf("NEXT", "PREV", "NEXT[0,2]")
    val structural = Gen.oneOf("FWD", "BWD")
    Gen.frequency(
      3 -> temporal.map(a => s"-/$a/-"),
      1 -> Gen.zip(temporal, temporal).map { case (a, b) => s"-/$a/$b/-" },
      1 -> Gen.zip(structural, structural).map { case (a, b) => s"-/$a/$b/-" },
      1 -> Gen.const("-/PREV*/-"),
      3 -> Gen.oneOf("-[:LABEL]->", "<-[:LABEL]-", "-[Z:LABEL]->", "<-[Z:LABEL]-"))
  }

  /** A MATCH chain of 2–4 elements, each bound (`vI`) or anonymous, with at
    * least one bound element or edge.
    */
  private val genChain: Gen[String] = (for {
    n     <- Gen.choose(2, 4)
    bound <- Gen.listOfN(n, Gen.oneOf(true, false))
    segs  <- Gen.listOfN(n - 1, genSegment)
  } yield {
    val els = bound.zipWithIndex.map { case (b, i) => if (b) s"(v$i)" else "()" }
    "MATCH " + els.head + segs.zipWithIndex.map { case (sg, i) =>
      sg.replace("Z", s"z$i") + els(i + 1)
    }.mkString + " ON g"
  }).suchThat(q => q.contains("(v") || q.contains("[z"))

  /** Bindings of the bound positions of `ch`, in chain order, from the point
    * evaluator's hop sets `Tst(tᵢ)/rᵢ/Tst(tᵢ₊₁)` joined on the driver at every
    * position. Uses no MatchEvaluator or Band code.
    */
  private def reference(hop: Path => Set[(Long, Int, Long, Int)],
                        ch: Desugar.Chain): Set[Seq[(Long, Int)]] = {
    def hopSet(i: Int) = hop(Concat(Concat(Tst(ch.tests(i)), ch.rels(i)), Tst(ch.tests(i + 1))))
    val first = hopSet(0).map { case (o1, t1, o2, t2) => Vector((o1, t1), (o2, t2)) }
    val rows = (1 until ch.rels.size).foldLeft(first) { (acc, i) =>
      val next = hopSet(i).groupBy { case (o1, t1, _, _) => (o1, t1) }
      acc.flatMap(row => next.getOrElse(row.last, Set.empty).map { case (_, _, o2, t2) => row :+ ((o2, t2)) })
    }
    rows.map(row => ch.vars.indices.filter(ch.vars(_).isDefined).map(row))
  }

  test("generated MATCH chains agree with per-hop point sets joined on the driver (fixed seed)") {
    // At most two PREV* chains, then ten others.
    val (closures, others) = Gen.listOfN(16, genChain).pureApply(Gen.Parameters.default, Seed(20221203L))
      .partition(_.contains("PREV*"))
    // The last chain's two pieces are one memoized relation, joined with itself.
    val queries = closures.take(2) ++ others.take(10) :+ "MATCH (v0)-/NEXT/-(v1)-/NEXT/-(v2) ON g"
    val chains = queries.map(q => Desugar.chain(Parser.parseMatch(q.replace("LABEL", "meets"))))
    def interior(ch: Desugar.Chain) = ch.vars.indices.drop(1).dropRight(1)
    assert(chains.exists(_.vars.head.isEmpty), "no anonymous head")
    assert(chains.exists(_.vars.last.isEmpty), "no anonymous tail")
    assert(chains.exists(ch => interior(ch).exists(ch.vars(_).isEmpty)), "no anonymous middle")
    assert(chains.exists(_.vars.exists(_.exists(_.startsWith("z")))), "no bound edge variable")
    assert(queries.exists(_.contains("PREV*")), "no PREV*")
    // The chains alternate between the two graphs, each with one evaluator
    // of either kind and a cache of collected hop sets.
    val graphs = Seq(("figure1", FigureOne.itpg(spark), "meets"),
                     ("random(3)", TestGraphs.random(spark, 3), "r")).map { case (name, g, label) =>
      val pe = new PointEvaluator(g.toTpg)
      val hops = scala.collection.mutable.HashMap.empty[Path, Set[(Long, Int, Long, Int)]]
      (name, label, new IntervalEvaluator(g), (p: Path) => hops.getOrElseUpdate(p, pe.eval(p)))
    }
    val sizes = queries.zipWithIndex.map { case (query, i) =>
      val (name, label, ev, hop) = graphs(i % graphs.size)
      val text = query.replace("LABEL", label)
      val q = Parser.parseMatch(text)
      val ch = Desugar.chain(q)
      val vars = ch.vars.flatten
      val df = MatchEvaluator.bindingsPoints(ev, q)
      assert(df.columns.toSeq == vars.flatMap(v => Seq(v, v + "_time")), s"$text on $name")
      val got: Set[Seq[(Long, Int)]] =
        df.collect().map(r => vars.indices.map(j => (r.getLong(2 * j), r.getInt(2 * j + 1)))).toSet
      val expected = reference(hop, ch)
      if (got != expected) fail(s"$text on $name: extra=${(got -- expected).take(3)} " +
                                s"missing=${(expected -- got).take(3)}")
      got.size
    }
    assert(sizes.count(_ > 0) >= queries.size / 2, s"mostly empty tables: $sizes")
  }
}
