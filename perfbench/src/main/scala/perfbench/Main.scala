package perfbench

import java.nio.file.{Files, Path, Paths}

import scala.collection.immutable.ListMap
import scala.jdk.CollectionConverters._

/** Entry point, started by `run.py` from the exported classpath.
  *
  * {{{
  * perfbench.Main run --workload W --seed N --seconds S --trace 0|1 --build DIR --goldens FILE --fingerprint F
  * perfbench.Main selfcheck --build DIR --goldens FILE
  * perfbench.Main record-goldens --build DIR --goldens FILE
  * }}}
  *
  * `run` prints human-readable lines, then as its last line one JSON object
  * with `correct`, `attempted`, `failed` and `metrics`. Everything else it
  * measured goes to a results file under `DIR/results`, stamped with `F`,
  * the fingerprint of the sources the classpath was built from.
  */
object Main {

  final case class Opts(mode: String, kv: Map[String, String]) {
    def apply(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
  }

  def parse(argv: Array[String]): Opts = {
    require(argv.nonEmpty, "usage: Main run|selfcheck|record-goldens --key value ...")
    val kv = argv.tail.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    Opts(argv.head, kv)
  }

  def main(argv: Array[String]): Unit = {
    val o = parse(argv)
    val build = Paths.get(o("build")).toAbsolutePath
    val code = o.mode match {
      case "run"            => run(o, build)
      case "selfcheck"      => SelfCheck.run(build, Paths.get(o("goldens")))
      case "record-goldens" => Record.run(build, Paths.get(o("goldens")))
      case m                => throw new IllegalArgumentException(s"unknown mode $m")
    }
    sys.exit(code)
  }

  /** Result line: the metric names of the run's mode, each with its unit. */
  def resultLine(b: Bench, metrics: Map[String, Double], trace: Boolean): Map[String, Any] = {
    val catalogue = if (trace) Metrics.perLayer else Metrics.endToEnd
    catalogue.foreach { case (n, _) =>
      require(!metrics(n).isNaN && !metrics(n).isInfinite, s"metric $n is ${metrics(n)}")
    }
    ListMap(
      "correct" -> (b.failed == 0 && b.attempted > 0),
      "attempted" -> b.attempted,
      "failed" -> b.failed,
      "metrics" -> ListMap(catalogue.map { case (n, u) =>
        n -> ListMap("value" -> metrics(n), "unit" -> u)
      }: _*))
  }

  /** Median `mix_s` of the untraced runs of `w` already in `build` that were
    * made from the same sources (same `fingerprint`).
    */
  private def earlierMix(build: Path, w: Workload, fingerprint: String): Option[Double] = {
    val dir = build.resolve("results")
    if (!Files.isDirectory(dir)) None
    else {
      val files = Files.list(dir)
      val mixes = try files.iterator().asScala.toSeq
        .filter(_.getFileName.toString.matches(s"${w.name}-seed-?\\d+-trace0\\.json"))
        .flatMap(f => scala.util.Try(Json.read(f)).toOption)
        .filter(r => Option(r.get("fingerprint")).exists(_.asText == fingerprint))
        .flatMap(r => scala.util.Try(r.get("result").get("metrics").get("mix_s").get("value").asDouble).toOption)
      finally files.close()
      if (mixes.isEmpty) None else Some(Metrics.median(mixes))
    }
  }

  private def run(o: Opts, build: Path): Int = {
    val workload = Workload.byName(o("workload"))
    val seed = o("seed").toLong
    val seconds = o("seconds").toDouble
    val trace = o("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val members = Goldens.load(Paths.get(o("goldens")))
    val spark = Settings.session(build)
    val sessionS = (System.currentTimeMillis() - Settings.processStartMs) / 1e3
    try {
      val b = new Bench(spark, workload, seed, seconds, trace, members)
      b.setup(sessionS)
      b.measure(if (trace) earlierMix(build, workload, o("fingerprint")) else None)
      val metrics = if (trace) b.perLayer else b.endToEnd
      val line = resultLine(b, metrics, trace)
      val details = ListMap("fingerprint" -> o("fingerprint"),
        "settings" -> Settings.describe(spark), "result" -> line) ++ b.details
      val out = build.resolve("results").resolve(s"${workload.name}-seed$seed-trace${if (trace) 1 else 0}.json")
      Json.writeFile(out, details)
      println(s"settings ${Json.write(Settings.describe(spark))}")
      b.failures.foreach(f => println(s"FAILED: $f"))
      println(f"${workload.name}: ${b.untraced.size} untraced and ${b.tracedPasses.size} traced " +
              f"passes, ${b.attempted} operations, failed_share ${b.failed.toDouble / b.attempted}%.4f; details in $out")
      println(Json.write(line))
      0
    } finally spark.stop()
  }
}
