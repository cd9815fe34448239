package perfbench

import java.nio.file.Path

import scala.collection.mutable

/** Fast check of the harness itself, on shortened runs:
  *
  *   - a correct run fails nothing, and a deliberately wrong golden is
  *     counted as a failure;
  *   - every metric of both modes is printed with its unit (run.py then
  *     compares the printed names and units with BENCHMARK.json);
  *   - every trace span's parent exists, belongs to the same query and
  *     encloses it, and every layer call leaves a span.
  *
  * Its last output line is a JSON report that run.py reads.
  */
object SelfCheck {

  def run(build: Path, goldensPath: Path): Int = {
    val members = Goldens.load(goldensPath)
    val spark = Settings.session(build)
    val problems = mutable.ArrayBuffer.empty[String]
    val results = mutable.ArrayBuffer.empty[Map[String, Any]]

    def bench(w: Workload, trace: Boolean, queries: Seq[String]): Bench = {
      val b = new Bench(spark, w, seed = 1, seconds = 0, trace, members)
      b.queryList = queries
      b.pairsPerExpr = 10
      b
    }
    def finish(b: Bench, trace: Boolean): Unit = {
      b.measure()
      val metrics = if (trace) b.perLayer else b.endToEnd
      results += Map("workload" -> b.workload.name, "trace" -> trace,
                     "line" -> Main.resultLine(b, metrics, trace))
    }

    try {
      val ok = bench(Workload.Fig1, trace = false, Seq("Q1"))
      ok.setup(0)
      finish(ok, trace = false)
      if (ok.failed != 0) problems += s"fig1 Q1 failed against the paper's table: ${ok.failures}"

      val wrong = bench(Workload.Fig1, trace = false, Seq("Q1"))
      wrong.setup(0)
      val right = Goldens.fig1("Q1")
      wrong.goldenOverride = Map("Q1" -> right.copy(digest = right.digest ^ 1L))
      wrong.measure()
      if (wrong.failed == 0) problems += "a wrong golden did not raise failed_share"

      val traced = bench(Workload.Fig1, trace = true, Seq("Q9"))
      traced.setup(0)
      finish(traced, trace = true)
      problems ++= traced.tracer.problems()
      val names = traced.tracer.all.map(_.name).toSet
      val layers = Set("query", "Parser.parse", "Desugar.matchPath", "IntervalEvaluator.evalBands",
                       "Repetition", "Band.toPoints", "MatchEvaluator.bindings", "Itpg.warm",
                       "ContactTracing.generate")
      (layers -- names).foreach(n => problems += s"traced fig1 Q9 left no $n span")
      if (traced.perLayer("Repetition.jobs") <= 0) problems += "Q9's closure ran no Repetition jobs"

      for (trace <- Seq(false, true)) {
        val p = bench(Workload.Pairs, trace, Nil)
        p.setup(0)
        finish(p, trace)
        if (p.failed != 0) problems += s"pairs failed: ${p.failures}"
        if (trace) problems ++= p.tracer.problems()
      }
    } finally spark.stop()

    println(Json.write(Map("problems" -> problems.toSeq, "results" -> results.toSeq)))
    0
  }
}
