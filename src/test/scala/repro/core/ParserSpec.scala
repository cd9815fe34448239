package repro.core

import org.scalatest.funsuite.AnyFunSuite

import Ast._

/** Surface-syntax parser coverage: every form of Section IV plus precedence
  * and error handling. Pure driver-side tests.
  */
class ParserSpec extends AnyFunSuite {

  // ---- whole queries ------------------------------------------------------

  test("Q1 parses: single element with label") {
    val q = Parser.parseMatch(PaperQueries.q1)
    assert(q.graph == "contact_tracing")
    assert(q.elements == Vector(Element(Some("x"), Some("Person"), None)))
    assert(q.segments.isEmpty)
  }

  test("Q2 parses: property condition") {
    val q = Parser.parseMatch(PaperQueries.q2)
    assert(q.elements.head.cond.contains(PropIs("risk", "low")))
  }

  test("Q3 parses: AND with time equality") {
    val q = Parser.parseMatch(PaperQueries.q3)
    assert(q.elements.head.cond.contains(And(PropIs("risk", "low"), And(Lt(2), Not(Lt(1))))))
  }

  test("Q4 parses: time inequality") {
    val q = Parser.parseMatch(PaperQueries.q4)
    assert(q.elements.head.cond.contains(And(PropIs("risk", "low"), Lt(10))))
  }

  test("Q5 parses: directed edge pattern with a variable") {
    val q = Parser.parseMatch(PaperQueries.q5)
    assert(q.segments == Vector(EdgeSeg(Some("z"), Some("meets"), Out)))
    assert(q.elements(1) == Element(Some("y"), Some("Person"), Some(PropIs("risk", "high"))))
  }

  test("Q6 parses: bare PREV path segment") {
    val q = Parser.parseMatch(PaperQueries.q6)
    assert(q.segments == Vector(PathSeg(Pv)))
    assert(q.elements(1) == Element(Some("y"), None, None))
  }

  test("Q7 long form parses: path segment then edge pattern") {
    val q = Parser.parseMatch(PaperQueries.q7Long)
    assert(q.segments == Vector(PathSeg(Pv), EdgeSeg(None, Some("visits"), Out)))
    assert(q.elements.size == 3)
  }

  test("Q7 parses: PREV/FWD/:visits/FWD") {
    val q = Parser.parseMatch(PaperQueries.q7)
    assert(q.segments == Vector(PathSeg(
      Concat(Concat(Concat(Pv, F), Tst(HasLabel("visits"))), F))))
  }

  test("Q8 parses: PREV* postfix star") {
    val q = Parser.parseMatch(PaperQueries.q8)
    val PathSeg(p) = q.segments.head: @unchecked
    assert(p == Concat(Concat(Concat(Repeat(Pv, 0, None), F), Tst(HasLabel("visits"))), F))
  }

  test("Q9 parses: NEXT* and anonymous condition-only endpoint") {
    val q = Parser.parseMatch(PaperQueries.q9)
    val PathSeg(p) = q.segments.head: @unchecked
    assert(p == Concat(Concat(Concat(F, Tst(HasLabel("meets"))), F), Repeat(Nx, 0, None)))
    assert(q.elements(1) == Element(None, None, Some(PropIs("test", "pos"))))
  }

  test("Q10 parses: PREV[0,12]") {
    val q = Parser.parseMatch(PaperQueries.q10())
    val PathSeg(p) = q.segments.head: @unchecked
    assert(p == Concat(Concat(Concat(F, Tst(HasLabel("meets"))), F), Repeat(Pv, 0, Some(12))))
  }

  test("Q11 parses: label tests for edges and Room inside the path") {
    val q = Parser.parseMatch(PaperQueries.q11())
    val PathSeg(p) = q.segments.head: @unchecked
    val expected =
      Concat(Concat(Concat(Concat(Concat(Concat(Concat(
        F, Tst(HasLabel("visits"))), F), Tst(HasLabel("Room"))), B), Tst(HasLabel("visits"))), B),
        Repeat(Nx, 0, Some(12)))
    assert(p == expected)
  }

  test("Q12 parses: union of two branches then shared NEXT[0,12]") {
    val q = Parser.parseMatch(PaperQueries.q12())
    val PathSeg(p) = q.segments.head: @unchecked
    p match {
      case Concat(Union(a, b), Repeat(Nx, 0, Some(12))) =>
        assert(a == Concat(Concat(F, Tst(HasLabel("meets"))), F))
        assert(b == Concat(Concat(Concat(Concat(Concat(Concat(
          F, Tst(HasLabel("visits"))), F), Tst(HasLabel("Room"))), B), Tst(HasLabel("visits"))), B))
      case other => fail(s"unexpected shape: $other")
    }
  }

  // ---- path expression details -------------------------------------------

  test("union binds looser than concatenation") {
    assert(Parser.parsePath("FWD/:a + BWD") ==
           Union(Concat(F, Tst(HasLabel("a"))), B))
  }

  test("postfix binds tighter than concatenation") {
    assert(Parser.parsePath("NEXT*/FWD") == Concat(Repeat(Nx, 0, None), F))
  }

  test("parenthesized group takes the postfix") {
    assert(Parser.parsePath("(NEXT/FWD)[1,3]") == Repeat(Concat(Nx, F), 1, Some(3)))
  }

  test("open-ended occurrence indicator [2,_]") {
    assert(Parser.parsePath("PREV[2,_]") == Repeat(Pv, 2, None))
  }

  test("stacked postfixes apply left to right") {
    assert(Parser.parsePath("NEXT[1,2]*") == Repeat(Repeat(Nx, 1, Some(2)), 0, None))
  }

  test("condition test atom inside a path") {
    assert(Parser.parsePath("{risk = 'low'}") == Tst(PropIs("risk", "low")))
  }

  test("keywords are case-insensitive") {
    assert(Parser.parsePath("next/fwd") == Concat(Nx, F))
  }

  test("nested parens and unions") {
    assert(Parser.parsePath("((FWD + BWD) + NEXT)/PREV") ==
           Concat(Union(Union(F, B), Nx), Pv))
  }

  // ---- elements -----------------------------------------------------------

  test("element with only a variable") {
    assert(Parser.parseMatch("MATCH (y) ON g").elements ==
           Vector(Element(Some("y"), None, None)))
  }

  test("element with only a label") {
    assert(Parser.parseMatch("MATCH (:Room) ON g").elements ==
           Vector(Element(None, Some("Room"), None)))
  }

  test("element with only a condition") {
    assert(Parser.parseMatch("MATCH ({test = 'pos'}) ON g").elements ==
           Vector(Element(None, None, Some(PropIs("test", "pos")))))
  }

  test("empty element") {
    assert(Parser.parseMatch("MATCH () ON g").elements == Vector(Element(None, None, None)))
  }

  // ---- segments -----------------------------------------------------------

  test("incoming edge pattern") {
    assert(Parser.parseMatch("MATCH (x)<-[:meets]-(y) ON g").segments ==
           Vector(EdgeSeg(None, Some("meets"), In)))
  }

  test("undirected edge pattern") {
    assert(Parser.parseMatch("MATCH (x)-[:meets]-(y) ON g").segments ==
           Vector(EdgeSeg(None, Some("meets"), Undir)))
  }

  test("edge pattern with neither variable nor label") {
    assert(Parser.parseMatch("MATCH (x)-[]->(y) ON g").segments ==
           Vector(EdgeSeg(None, None, Out)))
  }

  test("chained segments alternate with elements") {
    val q = Parser.parseMatch("MATCH (x)-[:a]->(y)-/NEXT/-(z) ON g")
    assert(q.elements.size == 3 && q.segments.size == 2)
  }

  // ---- conditions ---------------------------------------------------------

  test("AND binds tighter than OR") {
    assert(Parser.parseCond("a = '1' OR b = '2' AND c = '3'") ==
           Or(PropIs("a", "1"), And(PropIs("b", "2"), PropIs("c", "3"))))
  }

  test("NOT and parens in conditions") {
    assert(Parser.parseCond("NOT (a = '1' OR b = '2')") ==
           Not(Or(PropIs("a", "1"), PropIs("b", "2"))))
  }

  test("time accepts unquoted numbers") {
    assert(Parser.parseCond("time < 10") == Lt(10))
  }

  // ---- errors -------------------------------------------------------------

  test("unterminated string is rejected") {
    assertThrows[IllegalArgumentException](Parser.parseMatch("MATCH (x {a = 'b}) ON g"))
  }

  test("missing ON clause is rejected") {
    assertThrows[IllegalArgumentException](Parser.parseMatch("MATCH (x)"))
  }

  test("trailing garbage is rejected") {
    assertThrows[IllegalArgumentException](Parser.parseMatch("MATCH (x) ON g extra"))
  }

  test("non-numeric time comparison is rejected") {
    assertThrows[IllegalArgumentException](Parser.parseCond("time < 'abc'"))
  }

  test("bad occurrence indicator is rejected") {
    assertThrows[IllegalArgumentException](Parser.parsePath("NEXT[3,1]"))
  }

  test("dangling segment is rejected") {
    assertThrows[IllegalArgumentException](Parser.parseMatch("MATCH (x)-/NEXT/- ON g"))
  }
}
