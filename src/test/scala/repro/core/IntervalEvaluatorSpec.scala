package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.{Expression, Greatest, Least}
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Join, Project}
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.{SparkSpec, TestGraphs, TestUtil}
import repro.tpg.{FigureOne, Itpg}
import Ast._

/** Interval-side specifics: test-interval computation stays coalesced and
  * interval-reasoned (no point expansion), Kleene stars converge, temporal
  * runs take the closed form and agree with the driver-local solver, and
  * the paper's Q8 formal translation produces the exact expected rooms.
  */
class IntervalEvaluatorSpec extends SparkSpec {

  lazy val fig = FigureOne.itpg(spark)
  lazy val ev = new IntervalEvaluator(fig)
  lazy val tiny = TestGraphs.tiny(spark)
  lazy val tinyEv = new IntervalEvaluator(tiny)

  test("testIv(∃) returns the coalesced existence intervals") {
    assert(TestUtil.ivs(ev.testIv(Exists).filter("id = 2")) == Set((2L, 1, 9)))
    assert(TestUtil.ivs(tinyEv.testIv(Exists).filter("id = 1")) == Set((1L, 0, 2), (1L, 4, 5)))
  }

  test("testIv(p↦v) returns coalesced valued intervals") {
    assert(TestUtil.ivs(ev.testIv(PropIs("risk", "high"))) ==
           Set((2L, 5, 9), (3L, 1, 7), (7L, 5, 8)))
  }

  test("testIv(¬∃) complements per object over Ω") {
    assert(TestUtil.ivs(tinyEv.testIv(Not(Exists))) ==
           Set((1L, 3, 3), (10L, 0, 0), (10L, 3, 5)))
  }

  test("testIv(<k) clips to the domain") {
    val got = TestUtil.ivs(tinyEv.testIv(Lt(3)))
    assert(got == Set((1L, 0, 2), (2L, 0, 2), (10L, 0, 2)))
    assert(tinyEv.testIv(Lt(0)).count() == 0)
    // k beyond the domain covers everything
    assert(TestUtil.ivs(tinyEv.testIv(Lt(100))) == Set((1L, 0, 5), (2L, 0, 5), (10L, 0, 5)))
  }

  test("testIv(∧) intersects; testIv(∨) unions and coalesces") {
    assert(TestUtil.ivs(tinyEv.testIv(And(Exists, Lt(2))).filter("id = 1")) == Set((1L, 0, 1)))
    assert(TestUtil.ivs(tinyEv.testIv(Or(Exists, Not(Exists))).filter("id = 1")) == Set((1L, 0, 5)))
  }

  test("testIv of state-local conjunctions: with ∃ or p↦v they are state rows, else all of Ω") {
    // a (id 1) does not exist at 3, but Node ∧ A holds there
    assert(TestUtil.ivs(tinyEv.testIv(And(IsNode, HasLabel("A")))) == Set((1L, 0, 5)))
    // p↦u on [0,1] and [4,5], w on [2,2]
    assert(TestUtil.ivs(tinyEv.testIv(And(And(And(IsNode, HasLabel("A")), PropIs("p", "u")), Exists))) ==
           Set((1L, 0, 1), (1L, 4, 5)))
    // a non-local conjunct intersects with the scan
    assert(TestUtil.ivs(tinyEv.testIv(And(And(Exists, HasLabel("A")), Not(Lt(1))))) ==
           Set((1L, 1, 2), (1L, 4, 5)))
  }

  test("testIv(?path) projects feasible starts") {
    // nodes with a live outgoing edge: only a during [1,2]
    val got = TestUtil.ivs(tinyEv.testIv(PathCond(Concat(F, Tst(And(IsEdge, Exists))))))
    assert(got == Set((1L, 1, 2)))
  }

  test("axis bands stay un-expanded: F over Figure 1 has 2 bands per edge") {
    assert(ev.evalBands(F).count() == 20)
  }

  test("(N/∃)[0,_] over Figure 1 stays band-compact (far fewer rows than points)") {
    val bands = ev.evalBands(Repeat(Concat(Nx, Tst(Exists)), 0, None)).count()
    val points = ev.evalPoints(Repeat(Concat(Nx, Tst(Exists)), 0, None)).count()
    assert(bands < points)
  }

  test("Q8 formal translation over Figure 1: the four person-room rows") {
    val p = Concat(Concat(Concat(Concat(
      Tst(And(And(IsNode, HasLabel("Person")), PropIs("test", "pos"))),
      Repeat(Concat(Pv, Tst(Exists)), 0, None)), F), Tst(And(HasLabel("visits"), Exists))), F)
    val got = TestUtil.tuples4(ev.evalPoints(p))
    assert(got == Set((6L, 9, 4L, 8), (6L, 9, 4L, 7), (6L, 9, 5L, 6), (6L, 9, 5L, 5)))
  }

  test("Q12 formal translation (Section V-A) over Figure 1") {
    // (Node ∧ Person ∧ risk↦high)/(F/(meets ∧ ∃)/F + F/(visits ∧ ∃)/F/Room/B/(visits ∧ ∃)/B)/
    // (N/∃)[0,12]/(Node ∧ test↦pos)
    val meets = Concat(Concat(F, Tst(And(HasLabel("meets"), Exists))), F)
    val visits = Concat(Concat(Concat(Concat(Concat(
      F, Tst(And(HasLabel("visits"), Exists))), F), Tst(HasLabel("Room"))), B),
      Concat(Tst(And(HasLabel("visits"), Exists)), B))
    val p = Concat(Concat(Concat(
      Tst(And(And(IsNode, HasLabel("Person")), PropIs("risk", "high"))),
      Union(meets, visits)),
      Repeat(Concat(Nx, Tst(Exists)), 0, Some(12))),
      Tst(And(IsNode, PropIs("test", "pos"))))
    val got = TestUtil.tuples4(ev.evalPoints(p)).map { case (o1, t1, _, _) =>
      (FigureOne.names(o1), t1)
    }
    assert(got == Set(("n3", 4), ("n3", 7), ("n7", 5), ("n7", 6), ("n7", 7), ("n7", 8)))
  }

  /** The join conditions, filter conditions and projections of the
    * optimized plan of `df`.
    */
  private def planExpressions(df: DataFrame): Seq[(String, Expression)] =
    df.queryExecution.optimizedPlan.collect {
      case j: Join    => j.condition.toSeq.map("join" -> _)
      case f: Filter  => Seq("filter" -> f.condition)
      case p: Project => p.projectList.map("project" -> _)
    }.flatten

  test("composition plans stay flat: no expression grows with the number of /") {
    def chain(k: Int): Path =
      (1 to k).foldLeft[Path](Tst(Exists))((p, _) => Concat(Concat(p, F), Tst(Exists)))
    def largest(es: Seq[(String, Expression)]): Int = es.map(_._2.collect { case x => x }.size).max
    val e = new IntervalEvaluator(fig)
    val Seq(two, six) = noJobs("flat-plans")(Seq(2, 6).map(k => planExpressions(e.evalBands(chain(k)))))
    assert(largest(six) <= largest(two),
           s"largest expression: ${largest(two)} nodes for (F/∃)^2, ${largest(six)} for (F/∃)^6")
    // A join condition is the middle-object key and the overlap test: no
    // tightening (greatest/least) of an input band is inlined into it.
    val inlined = six.collect {
      case ("join", c) if c.exists { case _: Greatest | _: Least => true; case _ => false } => c
    }
    assert(inlined.isEmpty, s"${inlined.size} join conditions inline tightening, such as " +
                            inlined.headOption.map(_.sql.take(300)).getOrElse(""))
  }

  test("a step is a closed-form run: the optimized plan of P/∃ has no join") {
    val plan = new IntervalEvaluator(fig).evalBands(Concat(Pv, Tst(Exists))).queryExecution.optimizedPlan
    val joins = plan.collect { case j: Join => j }
    assert(joins.isEmpty, s"${joins.size} joins in\n$plan")
  }

  test("memoized subtrees return the same DataFrame") {
    val p = Repeat(Concat(Nx, Tst(Exists)), 0, None)
    assert(ev.evalBands(p) eq ev.evalBands(p))
  }

  private lazy val onePoint = repro.tpg.FigureOne.build(spark, 3, 3,
    Seq(repro.tpg.NodeRow(1, "A", Map.empty, 3, 3)), Seq.empty)

  test("single-point domain: N and P are empty") {
    val e = new IntervalEvaluator(onePoint)
    assert(e.evalBands(Nx).count() == 0 && e.evalBands(Pv).count() == 0)
    assert(TestUtil.tuples4(e.evalPoints(Tst(Exists))) == Set((1L, 3, 1L, 3)))
  }

  // ---- closed-form temporal runs ------------------------------------------

  test("single-point domain: (N/∃)[0,_] is the identity, (P/∃)[1,_] is empty") {
    val e = new IntervalEvaluator(onePoint)
    assert(TestUtil.tuples4(e.evalPoints(Repeat(Concat(Nx, Tst(Exists)), 0, None))) ==
           Set((1L, 3, 1L, 3)))
    assert(e.evalBands(Repeat(Concat(Pv, Tst(Exists)), 1, None)).count() == 0)
  }

  test("evalBands((N/∃)[0,_]) is closed-form: it submits no Spark job") {
    val e = new IntervalEvaluator(tiny)
    noJobs("closed-form-run")(e.evalBands(Repeat(Concat(Nx, Tst(Exists)), 0, None)))
  }

  /** The first PTO² tuple on which the interval evaluator's points for `p`
    * and the driver-local solver's membership differ.
    */
  private def firstDifference(g: Itpg, p: Path): Option[(Long, Int, Long, Int)] = {
    val got = TestUtil.tuples4(new IntervalEvaluator(g).evalPoints(p))
    val solver = TupleEvalSolver.fromItpg(g)
    val pto = for {
      o <- g.objects.select("id").collect().map(_.getLong(0)).sorted.toSeq
      t <- g.omegaLo to g.omegaHi
    } yield (o, t)
    (for ((o1, t1) <- pto.iterator; (o2, t2) <- pto.iterator
          if solver.check(o1, t1, o2, t2, p) != got.contains((o1, t1, o2, t2)))
    yield (o1, t1, o2, t2)).nextOption()
  }

  test("desugared (NEXT/{test='pos'})* takes the closed form") {
    val q = Parser.parseMatch("MATCH (x)-/(NEXT/{test = 'pos'})*/-(y) ON contact_tracing")
    val run = Desugar.segmentPath(q.segments.head)
    assert(run == Repeat(Concat(Concat(Nx, Tst(Exists)), Tst(And(PropIs("test", "pos"), Exists))),
                         0, None))
    val e = new IntervalEvaluator(fig)
    noJobs("closed-form-desugared")(e.evalBands(run))
    // test↦pos holds only for n6 at 9: the identity plus one step (n6,8) → (n6,9)
    val ids = fig.objects.select("id").collect().map(_.getLong(0))
    val identity = for (o <- ids.toSet[Long]; t <- fig.omegaLo to fig.omegaHi) yield (o, t, o, t)
    val n6 = FigureOne.nodeIds("n6")
    assert(TestUtil.tuples4(e.evalPoints(run)) == identity + ((n6, 8, n6, 9)))
  }

  private val atoms = Seq[Test](IsNode, IsEdge, HasLabel("A"), HasLabel("Person"),
                                PropIs("p", "u"), PropIs("risk", "high"), Exists)

  /** State-local conjunctions, `¬∃`, `<k` and their disjunctions. */
  private def genPhi(d: Int): Gen[Test] = {
    val local = Gen.choose(1, 3).flatMap(Gen.pick(_, atoms)).map(_.reduce[Test](And))
    val leaf = Gen.frequency(4 -> local, 1 -> Gen.const(Not(Exists)), 1 -> Gen.choose(1, 10).map(Lt(_)))
    if (d == 0) leaf
    else Gen.frequency(3 -> leaf, 1 -> Gen.zip(genPhi(d - 1), genPhi(d - 1)).map { case (a, b) => Or(a, b) })
  }

  /** `(N/φ)[n,m]`, `(P/φ)[n,m]`, bare `N`/`P` and `(N/φ₁)/φ₂` runs, with
    * `[n,_]` for about half of them.
    */
  private val genRun: Gen[Path] = for {
    phi <- genPhi(1)
    phi2 <- genPhi(0)
    body <- Gen.frequency(3 -> Gen.const(Concat(Nx, Tst(phi))), 3 -> Gen.const(Concat(Pv, Tst(phi))),
                          1 -> Gen.const(Nx), 1 -> Gen.const(Pv),
                          2 -> Gen.const(Concat(Concat(Nx, Tst(phi)), Tst(phi2))))
    n <- Gen.choose(0, 2)
    m <- Gen.oneOf(Gen.const(None), Gen.choose(n, 4).map(Some(_)))
  } yield Repeat(body, n, m)

  test("generated temporal runs agree with TupleEvalSolver over PTO² (fixed seed)") {
    val exprs = Gen.listOfN(64, genRun).pureApply(Gen.Parameters.default, Seed(20221006L))
    val (open, bounded) = exprs.partition { case Repeat(_, _, m) => m.isEmpty; case _ => false }
    assert(open.size >= 16 && bounded.size >= 16, s"${open.size} [n,_] and ${bounded.size} [n,m]")
    val micro = Seq("tiny" -> tiny, "random3" -> TestGraphs.random(spark, 3),
                    "random11" -> TestGraphs.random(spark, 11))
    // The solver saturates r[n,_] at |Ω|·|N∪E| − 1, 186 steps on Figure 1;
    // checking one such run over Figure 1's PTO² still takes 0.3–8.8 s
    // (median 4.6 s over 43 generated runs, 4-core VM), so Figure 1 takes
    // bounded runs only.
    def check(ps: Seq[Path], graphs: Seq[(String, Itpg)]): Unit =
      ps.zipWithIndex.foreach { case (p, i) =>
        val (name, g) = graphs(i % graphs.size)
        firstDifference(g, p).foreach { at =>
          fail(s"interval evaluator and solver differ on $name for ${Ast.show(p)} at $at")
        }
      }
    check(open, micro)
    check(bounded, ("figure1" -> fig) +: micro)
  }
}
