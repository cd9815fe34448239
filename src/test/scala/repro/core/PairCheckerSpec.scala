package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.tpg.FigureOne
import Ast._

/** Algorithm 3 (`TupleEvalSolveOnlyPC`) must agree with the point evaluator
  * on every PTO×PTO pair for NavL[PC] expressions.
  */
class PairCheckerSpec extends SparkSpec {

  lazy val tiny = TestGraphs.tiny(spark)
  lazy val tinyChecker = PairChecker.fromItpg(tiny)
  lazy val tinyEv = new PointEvaluator(tiny.toTpg)
  lazy val fig = FigureOne.itpg(spark)
  lazy val figChecker = PairChecker.fromItpg(fig)
  lazy val figEv = new PointEvaluator(fig.toTpg)

  /** Exhaustive agreement over all PTO×PTO pairs of the tiny graph. */
  private def agreeTiny(p: Path): Unit = {
    val expected = tinyEv.eval(p)
    val objs = Seq(1L, 2L, 10L)
    for (o1 <- objs; t1 <- 0 to 5; o2 <- objs; t2 <- 0 to 5) {
      val got = tinyChecker.check(o1, t1, o2, t2, p)
      assert(got == expected.contains((o1, t1, o2, t2)),
             s"${Ast.show(p)} at ($o1,$t1,$o2,$t2): checker=$got")
    }
  }

  test("axes agree exhaustively")(Seq[Path](F, B, Nx, Pv).foreach(agreeTiny))
  test("existence tests agree")(Seq[Path](Tst(Exists), Tst(Not(Exists))).foreach(agreeTiny))
  test("label/kind/property/time tests agree") {
    Seq[Path](Tst(HasLabel("A")), Tst(IsNode), Tst(IsEdge),
              Tst(PropIs("p", "u")), Tst(Lt(3))).foreach(agreeTiny)
  }
  test("boolean connectives agree") {
    agreeTiny(Tst(And(HasLabel("A"), Exists)))
    agreeTiny(Tst(Or(IsEdge, Lt(1))))
    agreeTiny(Tst(Not(Or(PropIs("p", "u"), IsEdge))))
  }
  test("concatenation agrees")(agreeTiny(Concat(Concat(F, Tst(And(IsEdge, Exists))), F)))
  test("temporal concatenation agrees")(agreeTiny(Concat(Concat(Nx, Tst(Exists)), Nx)))
  test("union agrees")(agreeTiny(Union(Concat(F, Tst(Exists)), Pv)))
  test("path conditions agree")(agreeTiny(Tst(PathCond(Concat(F, Tst(And(IsEdge, Exists)))))))
  test("negated path conditions agree")(
    agreeTiny(Tst(Not(PathCond(Concat(Nx, Tst(Exists)))))))

  test("Figure-1 spot checks: Q6's formal translation") {
    val p = Concat(Concat(
      Tst(And(And(And(IsNode, HasLabel("Person")), PropIs("test", "pos")), Exists)), Pv),
      Tst(And(IsNode, Exists)))
    assert(figChecker.check(6L, 9, 6L, 8, p))
    assert(!figChecker.check(6L, 9, 6L, 7, p))
    assert(!figChecker.check(6L, 8, 6L, 7, p))
  }

  test("Figure-1 sampled agreement on a mixed expression") {
    val p = Concat(Concat(Concat(Tst(PropIs("risk", "high")), F),
                          Tst(And(HasLabel("meets"), Exists))), F)
    val expected = figEv.eval(p)
    val rnd = new scala.util.Random(5)
    val objs = (FigureOne.nodeIds.values ++ FigureOne.edgeIds.values).toSeq
    (1 to 800).foreach { _ =>
      val o1 = objs(rnd.nextInt(objs.size)); val o2 = objs(rnd.nextInt(objs.size))
      val t1 = 1 + rnd.nextInt(11); val t2 = 1 + rnd.nextInt(11)
      assert(figChecker.check(o1, t1, o2, t2, p) == expected.contains((o1, t1, o2, t2)))
    }
    expected.foreach { case (o1, t1, o2, t2) => assert(figChecker.check(o1, t1, o2, t2, p)) }
  }

  test("numerical occurrence indicators are rejected (NavL[PC] only)") {
    assertThrows[UnsupportedOperationException] {
      tinyChecker.check(1L, 0, 1L, 2, Repeat(Nx, 0, Some(2)))
    }
    assertThrows[UnsupportedOperationException] {
      tinyChecker.check(1L, 0, 1L, 0, Tst(PathCond(Repeat(Nx, 0, Some(2)))))
    }
  }

  test("checkTest evaluates conditions directly") {
    assert(figChecker.checkTest(6L, 9, PropIs("test", "pos")))
    assert(!figChecker.checkTest(6L, 8, PropIs("test", "pos")))
    assert(figChecker.checkTest(2L, 1, And(PropIs("risk", "low"), Exists)))
    assert(!figChecker.checkTest(2L, 5, PropIs("risk", "low")))
  }

  test("coalescing inside fromItpg merges adjacent value intervals") {
    // n6's name 'Eve' is stored on two adjacent state rows [2,8] and [9,9]
    assert(figChecker.checkTest(6L, 9, PropIs("name", "Eve")))
    assert(figChecker.checkTest(6L, 2, PropIs("name", "Eve")))
  }
}
