package repro.core

import org.scalacheck.Gen

import Ast._

/** Generated NavL[PC,NOI] expressions over the micro-graphs' vocabulary
  * (labels `A`, property `p↦u`), for the differential tests.
  */
object NavlGen {

  private val atom: Gen[Test] =
    Gen.oneOf[Test](IsNode, IsEdge, HasLabel("A"), PropIs("p", "u"), Lt(3), Exists)

  def genTest(d: Int): Gen[Test] =
    if (d == 0) atom
    else Gen.frequency(
      2 -> atom,
      2 -> genPath(d - 1).map(PathCond(_)),
      1 -> Gen.zip(genTest(d - 1), genTest(d - 1)).map { case (a, b) => And(a, b) },
      1 -> Gen.zip(genTest(d - 1), genTest(d - 1)).map { case (a, b) => Or(a, b) },
      1 -> genTest(d - 1).map(Not(_)))

  /** NavL[PC,NOI] paths of nesting depth ≤ `d`, with `[n,m]` for m ≤ 3. */
  def genPath(d: Int): Gen[Path] = {
    val axis = Gen.oneOf[Path](F, B, Nx, Pv)
    if (d == 0) Gen.frequency(4 -> axis, 1 -> Gen.const(Tst(Exists)))
    else Gen.frequency(
      2 -> axis,
      1 -> genTest(d).map(Tst(_)),
      3 -> Gen.zip(genPath(d - 1), genPath(d - 1)).map { case (a, b) => Concat(a, b) },
      1 -> Gen.zip(genPath(d - 1), genPath(d - 1)).map { case (a, b) => Union(a, b) },
      2 -> (for (p <- genPath(d - 1); m <- Gen.choose(0, 3); n <- Gen.choose(0, m))
            yield Repeat(p, n, Some(m))),
      1 -> (for (p <- genPath(d - 1); n <- Gen.choose(0, 2)) yield Repeat(p, n, None)))
  }

  /** `p` and all its subexpressions, those inside path conditions included. */
  def subpaths(p: Path): Seq[Path] = p +: (p match {
    case Concat(a, b)    => subpaths(a) ++ subpaths(b)
    case Union(a, b)     => subpaths(a) ++ subpaths(b)
    case Repeat(a, _, _) => subpaths(a)
    case Tst(t)          => testPaths(t)
    case _               => Nil
  })

  def testPaths(t: Test): Seq[Path] = t match {
    case PathCond(p) => subpaths(p)
    case And(a, b)   => testPaths(a) ++ testPaths(b)
    case Or(a, b)    => testPaths(a) ++ testPaths(b)
    case Not(x)      => testPaths(x)
    case _           => Nil
  }
}
