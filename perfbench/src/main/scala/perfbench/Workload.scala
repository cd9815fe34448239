package perfbench

import repro.core.{Desugar, PaperQueries, Parser}
import repro.core.Ast.Path

/** The benchmark's workloads. Each runs closed-loop from one thread. */
sealed abstract class Workload(val name: String)

object Workload {
  /** The paper's Figure-1 ITPG: per-query fixed cost, one query per plan
    * shape (selection; PREV with a point-based table; NEXT* closure).
    */
  case object Fig1 extends Workload("fig1")
  /** Point membership checks on Figure 1 with the driver-local checkers. */
  case object Pairs extends Workload("pairs")

  val all: Seq[Workload] = Seq(Fig1, Pairs)

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n' (one of ${all.map(_.name).mkString(", ")})"))

  def queries(w: Workload): Seq[String] = w match {
    case Fig1  => Seq("Q1", "Q6", "Q9")
    case Pairs => Nil
  }

  private def path(q: String): Path = Desugar.matchPath(Parser.parseMatch(PaperQueries.all.toMap.apply(q)))

  /** Checked expressions: the desugared MATCH paths, with the checker that
    * handles them (Algorithm 3 for NavL[PC], Algorithms 4–5 with NOI).
    */
  lazy val pairExprs: Seq[(String, (String, Path))] = Seq(
    "Q6" -> ("PairChecker", path("Q6")),
    "Q7" -> ("PairChecker", path("Q7")),
    "Q8" -> ("TupleEvalSolver", path("Q8")),
    "Q9" -> ("TupleEvalSolver", path("Q9")),
    "Q10" -> ("TupleEvalSolver", path("Q10")),
    "Q12" -> ("TupleEvalSolver", path("Q12")))
}
