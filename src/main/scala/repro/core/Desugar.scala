package repro.core

import Ast._

/** Desugaring from the practical query language (Section IV) into
  * NavL[PC,NOI] (Section V-A), following the paper's own translation
  * examples:
  *
  *   - every practical navigation step enforces existence of the temporal
  *     object it reaches: `NEXT ⇒ N/∃`, `PREV ⇒ P/∃`, `FWD ⇒ F/∃`,
  *     `BWD ⇒ B/∃` ("where all temporal objects must exist, as required in
  *     Section IV");
  *   - `(x:Person {test = 'pos'})` ⇒ `Node ∧ Person ∧ test↦pos ∧ ∃`, where
  *     the parser already read the `{ … }` condition as a NavL test (so
  *     `time = 'k'` is `(<k+1 ∧ ¬<k)` and `time < 'k'` is `<k`);
  *   - `:meets` inside a path ⇒ `meets ∧ ∃`;
  *   - `-[:meets]->` ⇒ `F / (Edge ∧ meets ∧ ∃) / F/∃`, `<-[..]-` the same
  *     with `B`, `-[..]-` the union of both;
  *   - `-[z:meets]->` binds `z` to the edge test as an element of its own,
  *     `F / (Edge ∧ meets ∧ ∃) / F` (the next element test requires ∃);
  *     an undirected pattern with a bound variable is rejected, and so is
  *     a variable bound twice.
  */
object Desugar {

  /** NavL test for a node element `(x:Person {…})`. */
  def elementTest(e: Element): Test = {
    val base: Test = IsNode
    val withLabel = e.label.fold(base)(l => And(base, HasLabel(l)))
    val withCond = e.cond.fold(withLabel)(c => And(withLabel, c))
    And(withCond, Exists)
  }

  /** NavL test for the edge in an edge pattern `-[z:meets]->`. */
  def edgeTest(label: Option[String]): Test = {
    val base: Test = IsEdge
    val withLabel = label.fold(base)(l => And(base, HasLabel(l)))
    And(withLabel, Exists)
  }

  /** Rewrite a practical path into NavL[PC,NOI]: insert ∃ after every axis
    * and conjoin ∃ to every embedded test.
    */
  def practicalPath(p: Path): Path = p match {
    case a: Axis         => Concat(a, Tst(Exists))
    case Tst(t)          => Tst(And(t, Exists))
    case Concat(a, b)    => Concat(practicalPath(a), practicalPath(b))
    case Union(a, b)     => Union(practicalPath(a), practicalPath(b))
    case Repeat(q, n, m) => Repeat(practicalPath(q), n, m)
  }

  /** NavL path for a whole (var-free) segment. */
  def segmentPath(s: Segment): Path = s match {
    case PathSeg(p) => practicalPath(p)
    case EdgeSeg(_, label, dir) =>
      val mid = Tst(edgeTest(label))
      def via(axis: Path): Path = Concat(Concat(Concat(axis, mid), axis), Tst(Exists))
      dir match {
        case Out   => via(F)
        case In    => via(B)
        case Undir => Union(via(F), via(B))
      }
  }

  /** Chain normal form: k+1 elements alternating with k NavL path relations.
    * Edge patterns with a bound variable become an explicit middle element
    * so the edge binding appears in the output (paper Q5's `z`).
    */
  final case class Chain(vars: Vector[Option[String]], tests: Vector[Test], rels: Vector[Path]) {
    require(vars.size == tests.size && vars.size == rels.size + 1)
    private val named = vars.flatten
    require(named.distinct == named, s"variable ${named.diff(named.distinct).head} is bound twice")
  }

  def chain(q: MatchQuery): Chain = {
    val vars = Vector.newBuilder[Option[String]]
    val tests = Vector.newBuilder[Test]
    val rels = Vector.newBuilder[Path]
    vars += q.elements.head.varName
    tests += elementTest(q.elements.head)
    q.segments.zip(q.elements.tail).foreach { case (seg, el) =>
      seg match {
        case EdgeSeg(Some(z), label, dir) =>
          require(dir != Undir, "undirected edge pattern with a bound variable is not supported")
          val axis = if (dir == Out) F else B
          rels += axis
          vars += Some(z)
          tests += edgeTest(label)
          rels += axis
        case other =>
          rels += segmentPath(other)
      }
      vars += el.varName
      tests += elementTest(el)
    }
    Chain(vars.result(), tests.result(), rels.result())
  }

  /** Elements `from` to `to` of the chain as one NavL path, the left fold
    * `Tst(t_from) / r_from / Tst(t_from+1) / … / Tst(t_to)`.
    */
  private def fold(ch: Chain, from: Int, to: Int): Path =
    (from until to).foldLeft[Path](Tst(ch.tests(from))) { (acc, i) =>
      Concat(Concat(acc, ch.rels(i)), Tst(ch.tests(i + 1)))
    }

  /** Elements `from` to `to` of a chain, with their NavL path. */
  final case class Piece(from: Int, to: Int, path: Path)

  /** The chain cut at its bound elements; the first and the last element are
    * always cut points. An anonymous element in between stays inside its
    * piece. A clause without segments is the one piece `Tst(t₀)` from 0 to 0
    * (`sliding` yields a single short window).
    */
  def pieces(ch: Chain): Vector[Piece] =
    (0 +: ch.vars.indices.filter(ch.vars(_).isDefined) :+ (ch.vars.size - 1)).distinct
      .sliding(2).map(w => Piece(w.head, w.last, fold(ch, w.head, w.last))).toVector

  /** The whole MATCH clause as one NavL path (endpoint semantics only):
    * `Tst(t_0) / r_0 / Tst(t_1) / … / r_k−1 / Tst(t_k)` over its chain.
    */
  def matchPath(q: MatchQuery): Path = {
    val ch = chain(q)
    fold(ch, 0, ch.rels.size)
  }

  /** True when the practical path uses no temporal navigation — the fragment
    * whose binding tables may stay temporally coalesced (paper Q1–Q5).
    */
  def isStructuralOnly(p: Path): Boolean = p match {
    case Nx | Pv         => false
    case F | B           => true
    case Tst(t)          => testStructuralOnly(t)
    case Concat(a, b)    => isStructuralOnly(a) && isStructuralOnly(b)
    case Union(a, b)     => isStructuralOnly(a) && isStructuralOnly(b)
    case Repeat(q, _, _) => isStructuralOnly(q)
  }

  private def testStructuralOnly(t: Test): Boolean = t match {
    case PathCond(p) => isStructuralOnly(p)
    case And(a, b)   => testStructuralOnly(a) && testStructuralOnly(b)
    case Or(a, b)    => testStructuralOnly(a) && testStructuralOnly(b)
    case Not(x)      => testStructuralOnly(x)
    case _           => true
  }

  def isStructuralOnly(q: MatchQuery): Boolean = isStructuralOnly(matchPath(q))
}
