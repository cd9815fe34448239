package repro.core

import repro.{SparkSpec, TestGraphs, TestUtil}
import repro.tpg.FigureOne
import Ast._

/** Formal semantics of NavL[PC,NOI] (Section V-B) on the point evaluator:
  * axes over PTO(G) regardless of existence, tests, boolean connectives,
  * path conditions, and numerical occurrence indicators.
  */
class PointEvaluatorSpec extends SparkSpec {

  lazy val tiny = TestGraphs.tiny(spark) // a=1 (A, gap at 3), b=2 (B), e=10 (a→b, [1,2]), Ω=[0,5]
  lazy val tinyEv = new PointEvaluator(tiny.toTpg)
  lazy val fig = FigureOne.itpg(spark)
  lazy val figEv = new PointEvaluator(fig.toTpg)

  private def run(ev: PointEvaluator, p: Path) = ev.eval(p)

  test("[[F]] holds at every time point, existing or not") {
    val f = run(tinyEv, F)
    // e exists only at [1,2] but F is defined over all of Ω
    assert(f.contains((1L, 0, 10L, 0)) && f.contains((1L, 5, 10L, 5)))
    assert(f.contains((10L, 4, 2L, 4)))
    assert(f == (0 to 5).flatMap(t => Seq((1L, t, 10L, t), (10L, t, 2L, t))).toSet)
  }

  test("[[B]] reverses source and destination") {
    assert(run(tinyEv, B) == (0 to 5).flatMap(t => Seq((2L, t, 10L, t), (10L, t, 1L, t))).toSet)
  }

  test("[[N]] stops at the domain boundary") {
    val n = run(tinyEv, Nx)
    assert(n.contains((1L, 4, 1L, 5)) && !n.exists(_._2 == 5))
    assert(n == (for (o <- Seq(1L, 2L, 10L); t <- 0 to 4) yield (o, t, o, t + 1)).toSet)
  }

  test("[[P]] is the converse of [[N]]") {
    assert(run(tinyEv, Pv) == run(tinyEv, Nx).map { case (o1, t1, o2, t2) => (o2, t2, o1, t1) })
  }

  test("[[∃]] is exactly the existence points") {
    val e = run(tinyEv, Tst(Exists))
    assert(e == (Seq((1L, 0), (1L, 1), (1L, 2), (1L, 4), (1L, 5)) ++
                 (0 to 5).map(t => (2L, t)) ++ Seq((10L, 1), (10L, 2)))
      .map { case (o, t) => (o, t, o, t) }.toSet)
  }

  test("[[¬∃]] is the complement within PTO") {
    val e = run(tinyEv, Tst(Not(Exists)))
    assert(e.contains((1L, 3, 1L, 3)) && e.contains((10L, 0, 10L, 0)) && e.contains((10L, 5, 10L, 5)))
    assert(run(tinyEv, Tst(Exists)).intersect(e).isEmpty)
    assert(run(tinyEv, Tst(Exists)).size + e.size == 3 * 6)
  }

  test("[[Node]] and [[Edge]] partition the objects") {
    val n = run(tinyEv, Tst(IsNode)); val e = run(tinyEv, Tst(IsEdge))
    assert(n.size == 2 * 6 && e.size == 1 * 6 && n.intersect(e).isEmpty)
  }

  test("label test ignores time") {
    assert(run(tinyEv, Tst(HasLabel("A"))) == (0 to 5).map(t => (1L, t, 1L, t)).toSet)
  }

  test("property test requires the value at that very time point") {
    val p = run(tinyEv, Tst(PropIs("p", "u")))
    assert(p == Seq(0, 1, 4, 5).map(t => (1L, t, 1L, t)).toSet) // p=w at 2, gap at 3
  }

  test("[[<k]] compares the time point") {
    assert(run(tinyEv, Tst(Lt(2))) == (for (o <- Seq(1L, 2L, 10L); t <- 0 to 1) yield (o, t, o, t)).toSet)
  }

  test("time = k is expressible as (<k+1 ∧ ¬<k)") {
    assert(run(tinyEv, Tst(And(Lt(3), Not(Lt(2))))) ==
           Seq(1L, 2L, 10L).map(o => (o, 2, o, 2)).toSet)
  }

  test("∧ and ∨ follow boolean semantics") {
    val a = run(tinyEv, Tst(And(HasLabel("A"), Exists)))
    assert(a == Seq(0, 1, 2, 4, 5).map(t => (1L, t, 1L, t)).toSet)
    val o = run(tinyEv, Tst(Or(HasLabel("B"), IsEdge)))
    assert(o == (for (x <- Seq(2L, 10L); t <- 0 to 5) yield (x, t, x, t)).toSet)
  }

  test("concatenation joins on the shared temporal object") {
    // a node at t steps onto an existing edge: F/(Edge ∧ ∃)
    val p = Concat(F, Tst(And(IsEdge, Exists)))
    assert(run(tinyEv, p) == Set((1L, 1, 10L, 1), (1L, 2, 10L, 2)))
  }

  test("union merges relations") {
    assert(run(tinyEv, Union(Nx, Pv)).size == run(tinyEv, Nx).size + run(tinyEv, Pv).size)
  }

  test("N[2,2] moves exactly two steps") {
    assert(run(tinyEv, Repeat(Nx, 2, Some(2))) ==
           (for (o <- Seq(1L, 2L, 10L); t <- 0 to 3) yield (o, t, o, t + 2)).toSet)
  }

  test("N[0,3] moves zero to three steps") {
    val r = run(tinyEv, Repeat(Nx, 0, Some(3)))
    assert(r == (for (o <- Seq(1L, 2L, 10L); t <- 0 to 5; d <- 0 to 3; if t + d <= 5)
                   yield (o, t, o, t + d)).toSet)
  }

  test("N[1,_] is the strict future") {
    assert(run(tinyEv, Repeat(Nx, 1, None)) ==
           (for (o <- Seq(1L, 2L, 10L); t <- 0 to 5; u <- t + 1 to 5) yield (o, t, o, u)).toSet)
  }

  test("r[n,m] and r[n,_] equal unions of iterated compositions (driver-side reference)") {
    // A branching base: one step either way, onto an existing point.
    val p = Concat(Union(Nx, Pv), Tst(Exists))
    val r = run(tinyEv, p)
    val id = (for (o <- Seq(1L, 2L, 10L); t <- 0 to 5) yield (o, t, o, t)).toSet
    val powers = Iterator.iterate(id)(TestUtil.composeSets(_, r)).take(6).toVector // r^0 … r^5
    for ((n, m) <- Seq((3, Some(3)), (4, Some(4)), (0, Some(3)), (0, Some(4)),
                       (1, Some(4)), (2, Some(5)), (2, None), (3, None))) {
      val expected = m match {
        case Some(k) => (n to k).map(powers).reduce(_ ++ _)
        case None =>
          Iterator.iterate(powers(n))(s => s ++ TestUtil.composeSets(s, r))
            .sliding(2).collectFirst { case Seq(a, b) if a == b => a }.get
      }
      val q = Repeat(p, n, m)
      assert(run(tinyEv, q) == expected, Ast.show(q))
    }
  }

  test("(N/∃)[0,_] cannot cross an existence gap") {
    val r = run(tinyEv, Repeat(Concat(Nx, Tst(Exists)), 0, None))
    // from (a,0): reach 1,2 but not 4 (gap at 3 blocks the chain)
    assert(r.contains((1L, 0, 1L, 2)) && !r.contains((1L, 0, 1L, 4)))
    assert(r.contains((1L, 3, 1L, 4))) // start need not exist; the next point must
  }

  test("path condition ?(F/(Edge ∧ ∃)) marks nodes with a live outgoing edge") {
    val r = run(tinyEv, Tst(PathCond(Concat(F, Tst(And(IsEdge, Exists))))))
    assert(r == Set((1L, 1, 1L, 1), (1L, 2, 1L, 2)))
  }

  test("room-availability expression finds the next time the room is free") {
    val ev = new PointEvaluator(TestGraphs.room(spark).toTpg)
    val p = Concat(Concat(Tst(And(HasLabel("Room"), Not(Exists))),
                          Repeat(Concat(Nx, Tst(Not(Exists))), 0, None)),
                   Tst(And(HasLabel("Room"), Exists)))
    // unavailable at 3..5; the only way to land on an existing point is via
    // the final test, which requires ∃ — but the repeat path only moves
    // through non-existing points, so nothing is reachable: start points
    // 3..5 can never reach an existing point through ¬∃ steps.
    assert(ev.eval(p).isEmpty)
    // the paper's intent needs one last step: (Room ∧ ¬∃)/(N/¬∃)[0,_]/N/(Room ∧ ∃)
    val p2 = Concat(Concat(Concat(Tst(And(HasLabel("Room"), Not(Exists))),
                                  Repeat(Concat(Nx, Tst(Not(Exists))), 0, None)), Nx),
                    Tst(And(HasLabel("Room"), Exists)))
    assert(ev.eval(p2) ==
           Set((1L, 3, 1L, 6), (1L, 4, 1L, 6), (1L, 5, 1L, 6)))
  }

  test("Q6's formal translation yields exactly (n6,9,n6,8)") {
    val p = Concat(Concat(
      Tst(And(And(And(IsNode, HasLabel("Person")), PropIs("test", "pos")), Exists)), Pv),
      Tst(And(IsNode, Exists)))
    assert(run(figEv, p) == Set((6L, 9, 6L, 8)))
  }

  test("memoized subtrees return the same relation") {
    val p = Concat(F, Tst(Exists))
    assert(figEv.eval(p) eq figEv.eval(p))
  }

  test("after construction, evaluation is driver-local: it submits no Spark job") {
    val ev = new PointEvaluator(fig.toTpg)
    val q12 = Desugar.matchPath(Parser.parseMatch(PaperQueries.q12()))
    noJobs("point-evaluator") {
      ev.eval(Repeat(Concat(Nx, Tst(Exists)), 0, None))
      ev.eval(q12)
    }
  }
}
