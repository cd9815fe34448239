package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.{SparkSpec, TestGraphs}
import Ast._
import NavlGen._

/** Algorithms 4–5 (`TupleEvalSolve`, full NavL[PC,NOI]) must agree with the
  * point evaluator on every PTO×PTO pair of a micro-graph — including the
  * occurrence-indicator decompositions and the `[n,_]` saturation bound —
  * on a fixed catalog and on generated expressions.
  */
class TupleEvalSolverSpec extends SparkSpec {

  lazy val tiny = TestGraphs.tiny(spark)
  lazy val solver = TupleEvalSolver.fromItpg(tiny)
  lazy val ev = new PointEvaluator(tiny.toTpg)

  private def agree(p: Path): Unit = {
    val expected = ev.eval(p)
    val objs = Seq(1L, 2L, 10L)
    for (o1 <- objs; t1 <- 0 to 5; o2 <- objs; t2 <- 0 to 5) {
      val got = solver.check(o1, t1, o2, t2, p)
      assert(got == expected.contains((o1, t1, o2, t2)),
             s"${Ast.show(p)} at ($o1,$t1,$o2,$t2): solver=$got")
    }
  }

  test("NavL[PC] fragment agrees (sanity vs Algorithm 3's scope)") {
    Seq[Path](F, B, Nx, Pv, Tst(Exists), Tst(Not(Exists)),
              Concat(Concat(F, Tst(And(IsEdge, Exists))), F),
              Tst(PathCond(Concat(F, Tst(And(IsEdge, Exists)))))).foreach(agree)
  }

  test("exact repetition r[n,n] agrees (even and odd halving)") {
    agree(Repeat(Nx, 2, Some(2)))
    agree(Repeat(Nx, 3, Some(3)))
    agree(Repeat(Nx, 4, Some(4)))
    agree(Repeat(Concat(Nx, Tst(Exists)), 3, Some(3)))
  }

  test("bounded repetition r[0,m] agrees (even and odd halving)") {
    agree(Repeat(Nx, 0, Some(2)))
    agree(Repeat(Nx, 0, Some(3)))
    agree(Repeat(Concat(Nx, Tst(Exists)), 0, Some(4)))
  }

  test("general r[n,m] splits into r[n,n]/r[0,m-n]") {
    agree(Repeat(Nx, 1, Some(3)))
    agree(Repeat(Concat(Union(Nx, Pv), Tst(Exists)), 1, Some(2)))
  }

  test("open-ended r[n,_] agrees when saturated at |Ω|·|N∪E| − 1 steps") {
    agree(Repeat(Nx, 1, None))
    agree(Repeat(Concat(Nx, Tst(Exists)), 0, None))
  }

  test("path conditions may contain occurrence indicators (full PC+NOI)") {
    agree(Tst(PathCond(Concat(Repeat(Nx, 0, Some(2)), Tst(And(IsEdge, Exists))))))
    agree(Tst(Not(PathCond(Repeat(Concat(Nx, Tst(Exists)), 2, Some(2))))))
  }

  test("identity at zero repetitions") {
    agree(Repeat(F, 0, Some(0)))
  }

  test("agrees on a second graph (random micro-graph)") {
    val g = TestGraphs.random(spark, 13)
    val s = TupleEvalSolver.fromItpg(g)
    val e = new PointEvaluator(g.toTpg)
    val p = Repeat(Concat(Union(Nx, Concat(F, Tst(Exists))), Tst(Exists)), 0, Some(3))
    val expected = e.eval(p)
    val objs = g.objects.select("id").collect().map(_.getLong(0)).toSeq
    for (o1 <- objs; t1 <- 0 to 7; o2 <- objs; t2 <- 0 to 7) {
      assert(s.check(o1, t1, o2, t2, p) == expected.contains((o1, t1, o2, t2)))
    }
  }

  // ---- differential check on generated expressions ------------------------

  test("generated NavL[PC,NOI] expressions agree with the point evaluator (fixed seed)") {
    val exprs = Gen.listOfN(24, genPath(3)).pureApply(Gen.Parameters.default, Seed(20220509L))
    val all = exprs.flatMap(subpaths)
    assert(all.exists { case Tst(t) => testPaths(t).nonEmpty; case _ => false }, "no ?path")
    assert(all.exists(_.isInstanceOf[Concat]) && all.exists(_.isInstanceOf[Union]))
    assert(all.exists { case Repeat(_, _, m) => m.nonEmpty; case _ => false }, "no [n,m]")
    assert(all.exists { case Repeat(_, _, m) => m.isEmpty; case _ => false }, "no [n,_]")
    val graphs = Seq(3L, 11L).map { seed =>
      val g = TestGraphs.random(spark, seed)
      val objs = PairChecker.collectObjects(g)
      (seed, g, objs, new PointEvaluator(g.toTpg),
       for (o <- objs.keys.toSeq.sorted; t <- g.omegaLo to g.omegaHi) yield (o, t))
    }
    assert(graphs.exists(_._2.edges.limit(1).count() > 0), "no graph has an edge")
    for (p <- exprs; (seed, g, objs, ev, pto) <- graphs) {
      // The first PTO² tuple on which `checker` and the point evaluator differ for `q`.
      def differs(checker: TupleEvalSolver, q: Path): Option[(Long, Int, Long, Int)] = {
        val expected = ev.eval(q)
        (for ((o1, t1) <- pto.iterator; (o2, t2) <- pto.iterator
              if checker.check(o1, t1, o2, t2, q) != expected.contains((o1, t1, o2, t2)))
        yield (o1, t1, o2, t2)).nextOption()
      }
      def agree(name: String, fresh: () => TupleEvalSolver, ok: Path => Boolean): Unit =
        if (differs(fresh(), p).nonEmpty) {
          val (q, at) = subpaths(p).filter(ok).distinct.sortBy(Ast.show(_).length).iterator
            .flatMap(q => differs(fresh(), q).map(q -> _)).next()
          fail(s"$name disagrees on random($seed) for ${Ast.show(p)}; " +
               s"smallest differing subexpression ${Ast.show(q)} at $at")
        }
      agree("TupleEvalSolver", () => new TupleEvalSolver(g.omegaLo, g.omegaHi, objs), _ => true)
      val noNoi: Path => Boolean = q => !subpaths(q).exists(_.isInstanceOf[Repeat])
      if (noNoi(p))
        agree("PairChecker", () => new PairChecker(g.omegaLo, g.omegaHi, objs), noNoi)
    }
  }
}
