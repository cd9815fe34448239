package repro.core

/** Abstract syntax of NavL[PC,NOI] (paper Section V-A, grammars (2)–(4))
  * plus the surface MATCH-clause structure of Section IV.
  */
object Ast {

  /** A TRPQ path expression (grammar (2)). */
  sealed trait Path {
    def /(other: Path): Path = Concat(this, other)
    def +(other: Path): Path = Union(this, other)
  }

  /** `test` embedded as a path: stays on the same temporal object. */
  final case class Tst(test: Test) extends Path

  /** The four axes (grammar (4)): structural F/B, temporal N/P. */
  sealed trait Axis extends Path
  case object F extends Axis
  case object B extends Axis
  case object Nx extends Axis
  case object Pv extends Axis

  /** `(path/path)` — concatenation. */
  final case class Concat(a: Path, b: Path) extends Path

  /** `(path + path)` — union. */
  final case class Union(a: Path, b: Path) extends Path

  /** `path[min, max]` (max = Some(m)) or `path[min, _]` (max = None).
    * The Kleene star is `Repeat(p, 0, None)`.
    */
  final case class Repeat(p: Path, min: Int, max: Option[Int]) extends Path {
    require(min >= 0 && max.forall(_ >= min), s"bad occurrence indicator [$min,$max]")
  }

  /** A condition on a temporal object (grammar (3)). */
  sealed trait Test {
    def and(other: Test): Test = And(this, other)
    def or(other: Test): Test = Or(this, other)
  }
  case object IsNode extends Test
  case object IsEdge extends Test
  final case class HasLabel(label: String) extends Test
  final case class PropIs(prop: String, value: String) extends Test
  final case class Lt(k: Int) extends Test
  case object Exists extends Test
  final case class PathCond(p: Path) extends Test
  final case class And(a: Test, b: Test) extends Test
  final case class Or(a: Test, b: Test) extends Test
  final case class Not(t: Test) extends Test

  /** `true` as a test: `(∃ ∨ ¬∃)` — identity over PTO(G). */
  val True: Test = Or(Exists, Not(Exists))

  /** Render a path in the paper's formal notation (for diagnostics). */
  def show(p: Path): String = p match {
    case Tst(t)       => showTest(t)
    case F            => "F"
    case B            => "B"
    case Nx           => "N"
    case Pv           => "P"
    case Concat(a, b) => s"(${show(a)}/${show(b)})"
    case Union(a, b)  => s"(${show(a)} + ${show(b)})"
    case Repeat(q, n, Some(m)) => s"${show(q)}[$n,$m]"
    case Repeat(q, n, None)    => s"${show(q)}[$n,_]"
  }

  def showTest(t: Test): String = t match {
    case IsNode        => "Node"
    case IsEdge        => "Edge"
    case HasLabel(l)   => l
    case PropIs(p, v)  => s"$p↦$v"
    case Lt(k)         => s"<$k"
    case Exists        => "∃"
    case PathCond(p)   => s"(?${show(p)})"
    case And(a, b)     => s"(${showTest(a)} ∧ ${showTest(b)})"
    case Or(a, b)      => s"(${showTest(a)} ∨ ${showTest(b)})"
    case Not(x)        => s"(¬${showTest(x)})"
  }

  // ---- Surface MATCH structure (Section IV) -------------------------------

  /** A node element `(x:Person {risk = 'low'})` — every part optional; the
    * `{ … }` condition is already a NavL test (without ∃).
    */
  final case class Element(varName: Option[String], label: Option[String], cond: Option[Test])

  /** Edge-pattern direction. */
  sealed trait Dir
  case object Out extends Dir // -[..]->
  case object In extends Dir // <-[..]-
  case object Undir extends Dir // -[..]-

  /** A connector between two elements. */
  sealed trait Segment
  /** `-[z:meets]->` and friends. */
  final case class EdgeSeg(varName: Option[String], label: Option[String], dir: Dir) extends Segment
  /** `-/ path /-` with practical path operators (desugared later). */
  final case class PathSeg(path: Path) extends Segment

  /** A full `MATCH element (segment element)* ON graph` clause. */
  final case class MatchQuery(elements: Vector[Element], segments: Vector[Segment], graph: String) {
    require(elements.size == segments.size + 1, "elements and segments must alternate")
  }
}
