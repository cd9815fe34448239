package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.{SparkSpec, TestGraphs, TestUtil}
import repro.tpg.{FigureOne, Itpg}
import Ast._

/** The interval evaluator (banded relations, Steps 1–2 + expansion) must
  * agree with the point evaluator (Theorem C.1 reference semantics) on every
  * expression of an operator-covering catalog, over several graphs, and on
  * generated expressions.
  */
class CrossCheckSpec extends SparkSpec {

  private lazy val graphs: Seq[(String, Itpg)] = Seq(
    "figure1" -> FigureOne.itpg(spark),
    "tiny" -> TestGraphs.tiny(spark),
    "random1" -> TestGraphs.random(spark, 1),
    "random2" -> TestGraphs.random(spark, 7),
    "room" -> TestGraphs.room(spark))

  private def checkAll(p: Path): Unit =
    graphs.foreach { case (name, g) =>
      val pointEv = new PointEvaluator(g.toTpg)
      val intervalEv = new IntervalEvaluator(g)
      val expected = pointEv.eval(p)
      val got = TestUtil.tuples4(intervalEv.evalPoints(p))
      assert(got == expected,
        s"mismatch on $name for ${Ast.show(p)}: " +
          s"extra=${(got -- expected).take(5)} missing=${(expected -- got).take(5)}")
    }

  test("axis F")(checkAll(F))
  test("axis B")(checkAll(B))
  test("axis N")(checkAll(Nx))
  test("axis P")(checkAll(Pv))
  test("test ∃")(checkAll(Tst(Exists)))
  test("test ¬∃")(checkAll(Tst(Not(Exists))))
  test("test Node ∧ label")(checkAll(Tst(And(IsNode, HasLabel("A")))))
  test("test Edge ∨ <3")(checkAll(Tst(Or(IsEdge, Lt(3)))))
  test("test property")(checkAll(Tst(PropIs("p", "u"))))
  test("test ¬(property ∨ Edge)")(checkAll(Tst(Not(Or(PropIs("p", "u"), IsEdge)))))
  test("test Node ∧ A ∧ p↦u ∧ ∃ (one state-row scan)")(
    checkAll(Tst(And(And(And(IsNode, HasLabel("A")), PropIs("p", "u")), Exists))))
  test("concat F/∃")(checkAll(Concat(F, Tst(Exists))))
  test("concat F/∃/F/∃")(checkAll(Concat(Concat(Concat(F, Tst(Exists)), F), Tst(Exists))))
  test("concat with B and P")(checkAll(Concat(Concat(Pv, B), Tst(Exists))))
  test("step N/¬∃")(checkAll(Concat(Nx, Tst(Not(Exists)))))
  test("step (P/p↦u)/∃")(checkAll(Concat(Concat(Pv, Tst(PropIs("p", "u"))), Tst(Exists))))
  test("union (F + B)")(checkAll(Union(F, B)))
  test("repeat N[2,2]")(checkAll(Repeat(Nx, 2, Some(2))))
  test("repeat N[0,3]")(checkAll(Repeat(Nx, 0, Some(3))))
  test("repeat N[1,_]")(checkAll(Repeat(Nx, 1, None)))
  test("repeat (N/∃)[0,_]")(checkAll(Repeat(Concat(Nx, Tst(Exists)), 0, None)))
  test("closed-form run (P/¬∃)[1,3]")(checkAll(Repeat(Concat(Pv, Tst(Not(Exists))), 1, Some(3))))
  test("desugared (NEXT/{p = 'u'})[0,3]")(
    checkAll(Desugar.practicalPath(Repeat(Concat(Nx, Tst(PropIs("p", "u"))), 0, Some(3)))))
  test("repeat of union ((N + P)/∃)[0,2]")(
    checkAll(Repeat(Concat(Union(Nx, Pv), Tst(Exists)), 0, Some(2))))
  test("path condition ?(F/∃)")(checkAll(Tst(PathCond(Concat(F, Tst(Exists))))))
  test("negated path condition ¬?(N/∃)")(checkAll(Tst(Not(PathCond(Concat(Nx, Tst(Exists)))))))
  test("room-availability example") {
    // (Room ∧ ¬∃)/(N/¬∃)[0,_]/(Room ∧ ∃)
    val p = Concat(Concat(Tst(And(HasLabel("Room"), Not(Exists))),
                          Repeat(Concat(Nx, Tst(Not(Exists))), 0, None)),
                   Tst(And(HasLabel("Room"), Exists)))
    checkAll(p)
  }
  test("paper Q8 formal translation") {
    // (Node ∧ Person ∧ test↦pos)/(P/∃)[0,_]/F/(visits ∧ ∃)/F
    val p = Concat(Concat(Concat(Concat(
      Tst(And(And(IsNode, HasLabel("Person")), PropIs("test", "pos"))),
      Repeat(Concat(Pv, Tst(Exists)), 0, None)), F), Tst(And(HasLabel("visits"), Exists))), F)
    checkAll(p)
  }
  test("desugared Q11 path") {
    val q = Parser.parseMatch(PaperQueries.q11())
    checkAll(Desugar.matchPath(q))
  }
  test("desugared Q12 path") {
    val q = Parser.parseMatch(PaperQueries.q12())
    checkAll(Desugar.matchPath(q))
  }

  test("generated NavL[PC,NOI] expressions agree with the point evaluator (fixed seed)") {
    val exprs = Gen.listOfN(16, NavlGen.genPath(3)).pureApply(Gen.Parameters.default, Seed(20221021L))
    val all = exprs.flatMap(NavlGen.subpaths)
    assert(all.exists { case Tst(t) => NavlGen.testPaths(t).nonEmpty; case _ => false }, "no ?path")
    assert(all.exists(_.isInstanceOf[Concat]) && all.exists(_.isInstanceOf[Union]))
    assert(all.exists { case Repeat(_, _, m) => m.nonEmpty; case _ => false }, "no [n,m]")
    assert(all.exists { case Repeat(_, _, m) => m.isEmpty; case _ => false }, "no [n,_]")
    // The expressions alternate between the two graphs, each with one
    // evaluator of either kind.
    val graphs = Seq("random(3)" -> TestGraphs.random(spark, 3), "tiny" -> TestGraphs.tiny(spark))
      .map { case (name, g) => (name, new IntervalEvaluator(g), new PointEvaluator(g.toTpg)) }
    exprs.zipWithIndex.foreach { case (p, i) =>
      val (name, intervalEv, pointEv) = graphs(i % graphs.size)
      def results(q: Path) = (TestUtil.tuples4(intervalEv.evalPoints(q)), pointEv.eval(q))
      def differs(q: Path) = { val (got, expected) = results(q); got != expected }
      if (differs(p)) {
        val q = NavlGen.subpaths(p).distinct.sortBy(Ast.show(_).length).find(differs).get
        val (got, expected) = results(q)
        fail(s"mismatch on $name for ${Ast.show(p)}; smallest differing subexpression " +
             s"${Ast.show(q)}: extra=${(got -- expected).take(5)} missing=${(expected -- got).take(5)}")
      }
    }
  }
}
