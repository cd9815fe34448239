package repro.core

import org.scalatest.funsuite.AnyFunSuite

import Ast._

/** Practical-syntax → NavL[PC,NOI] desugaring rules (paper's translations). */
class DesugarSpec extends AnyFunSuite {

  // A `{ … }` condition is translated as it is parsed.

  test("time = 'k' becomes (<k+1 ∧ ¬<k)") {
    assert(Parser.parseCond("time = '4'") == And(Lt(5), Not(Lt(4))))
  }

  test("time < 'k' becomes <k") {
    assert(Parser.parseCond("time < '10'") == Lt(10))
  }

  test("boolean connectives pass through") {
    assert(Parser.parseCond("NOT (a = '1' OR b = '2') AND c = '3'") ==
           And(Not(Or(PropIs("a", "1"), PropIs("b", "2"))), PropIs("c", "3")))
  }

  test("element test conjoins Node, label, condition and ∃") {
    val e = Element(Some("x"), Some("Person"), Some(PropIs("risk", "high")))
    assert(Desugar.elementTest(e) ==
           And(And(And(IsNode, HasLabel("Person")), PropIs("risk", "high")), Exists))
  }

  test("bare element still requires Node ∧ ∃") {
    assert(Desugar.elementTest(Element(Some("y"), None, None)) == And(IsNode, Exists))
  }

  test("axes gain an existence check: NEXT ⇒ N/∃") {
    assert(Desugar.practicalPath(Nx) == Concat(Nx, Tst(Exists)))
  }

  test("NEXT* ⇒ (N/∃)[0,_] — the paper's Q8 translation shape") {
    assert(Desugar.practicalPath(Repeat(Pv, 0, None)) ==
           Repeat(Concat(Pv, Tst(Exists)), 0, None))
  }

  test("label tests inside a path gain ∃: :meets ⇒ meets ∧ ∃") {
    assert(Desugar.practicalPath(Tst(HasLabel("meets"))) == Tst(And(HasLabel("meets"), Exists)))
  }

  test("edge pattern ⇒ F/∃/(Edge ∧ ℓ ∧ ∃)/F/∃ (paper: -[:v]-> ≡ -/FWD/:v/FWD/-)") {
    val p = Desugar.segmentPath(EdgeSeg(None, Some("visits"), Out))
    assert(p == Concat(Concat(Concat(F, Tst(And(And(IsEdge, HasLabel("visits")), Exists))), F),
                       Tst(Exists)))
  }

  test("undirected edge pattern is the union of both directions") {
    val p = Desugar.segmentPath(EdgeSeg(None, Some("meets"), Undir))
    p match {
      case Union(out, in) =>
        assert(out.toString.contains("F") && in.toString.contains("B"))
      case other => fail(s"expected union, got $other")
    }
  }

  test("matchPath interleaves element tests and segment paths") {
    val q = Parser.parseMatch("MATCH (x:A)-/NEXT/-(y:B) ON g")
    val p = Desugar.matchPath(q)
    assert(p == Concat(Concat(Tst(And(And(IsNode, HasLabel("A")), Exists)),
                              Concat(Nx, Tst(Exists))),
                       Tst(And(And(IsNode, HasLabel("B")), Exists))))
  }

  private def cut(q: String): Vector[(Int, Int)] =
    Desugar.pieces(Desugar.chain(Parser.parseMatch(q))).map(p => (p.from, p.to))

  test("cut at bound elements: Q9 is one piece, the whole matchPath") {
    val ps = Desugar.pieces(Desugar.chain(PaperQueries.parsed("Q9")))
    assert(ps.map(p => (p.from, p.to)) == Vector((0, 1)))
    assert(ps.map(_.path) == Vector(Desugar.matchPath(PaperQueries.parsed("Q9"))))
  }

  test("cut at bound elements: Q5's edge variable splits it into two pieces") {
    assert(cut(PaperQueries.q5) == Vector((0, 1), (1, 2)))
  }

  test("cut at bound elements: an anonymous middle element stays inside its piece") {
    assert(cut("MATCH (x)-/PREV/-()-[:visits]->(z) ON g") == Vector((0, 2)))
    assert(cut("MATCH ()-/NEXT/-(y)-/PREV/-() ON g") == Vector((0, 1), (1, 2)))
    assert(cut("MATCH (x) ON g") == Vector((0, 0)))
  }

  test("structural-only detection: Q1–Q5 are, Q6–Q12 are not") {
    val structural = Seq("Q1", "Q2", "Q3", "Q4", "Q5")
    PaperQueries.all.foreach { case (name, text) =>
      val q = Parser.parseMatch(text)
      assert(Desugar.isStructuralOnly(q) == structural.contains(name), name)
    }
  }

  test("a path condition hiding temporal navigation is not structural-only") {
    val p = Tst(PathCond(Concat(Nx, Tst(Exists))))
    assert(!Desugar.isStructuralOnly(p))
  }
}
