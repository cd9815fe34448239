package repro.bench

import java.nio.file.{Files, Paths}

import repro.SparkSpec
import repro.core._
import repro.data.ContactTracing
import repro.tpg.Band

/** Reproduces paper **Table II**: execution time (interval-based + total)
  * and output size of Q1–Q12.
  *
  * The paper runs on G10 (100k persons, 29M meets edges) in Rust; a local
  * Spark session pays seconds of scheduling per multi-operator query, so the
  * checked-in run uses `REPRO_BENCH_SCALE` = G3 by default (override up to
  * G10). What Table II demonstrates — the relative cost ordering of the
  * queries and the output-size ratios — is asserted below and recorded
  * against the paper's numbers in EXPERIMENTS.md. Each run also writes
  * `BENCH_tableII_<scale>.json` to the working directory (`bench/` under
  * sbt): the session settings, the number of runs, and per query the
  * interval, total and binding seconds, output size and band rows.
  */
class TableIIBench extends SparkSpec {

  private val paper = Map( // (interval s, total s, output) on G10, Rust, 16 cores
    "Q1" -> (0.004, 0.004, 341278L), "Q2" -> (0.017, 0.017, 278931L),
    "Q3" -> (0.016, 0.016, 26494L), "Q4" -> (0.038, 0.038, 116021L),
    "Q5" -> (4.546, 4.546, 743714L), "Q6" -> (0.096, 0.173, 86553L),
    "Q7" -> (0.036, 0.079, 47287L), "Q8" -> (0.025, 0.379, 1277729L),
    "Q9" -> (0.828, 0.983, 1234922L), "Q10" -> (0.899, 1.509, 3927763L),
    "Q11" -> (1.375, 4.986, 22961108L), "Q12" -> (2.434, 6.455, 26888871L))

  test("Table II: Q1-Q12 execution time and output size") {
    val scale = sys.env.getOrElse("REPRO_BENCH_SCALE", "G3")
    val runs = sys.env.getOrElse("REPRO_RUNS", "2").toInt
    val g = ContactTracing.generateScale(spark, scale)
    println(s"== Table II - Q1..Q12 on $scale (runs=$runs; paper: G10, Rust, 16 cores) ==")
    println(f"${"query"}%-5s ${"int(p) s"}%9s ${"tot(p) s"}%9s ${"out(p)"}%12s | " +
            f"${"int s"}%9s ${"tot s"}%9s ${"out"}%12s ${"bind s"}%9s")
    val rows = Experiments.tableII(g, runs, _ => ()).map { r =>
      val (pi, pt, po) = paper(r.name)
      println(f"${r.name}%-5s $pi%9.3f $pt%9.3f $po%,12d | " +
              f"${r.intervalSec}%9.3f ${r.totalSec}%9.3f ${r.output}%,12d ${r.bindingSec}%9.3f")
      r
    }
    writeJson(s"BENCH_tableII_$scale.json", scale, runs, rows)
    val byName = rows.map(r => r.name -> r).toMap
    // every query completes and produces output (Q10 can be small but the
    // generated graph has positives before meetings, so nonzero)
    rows.foreach(r => assert(r.output > 0, s"${r.name} produced no output"))
    // shape assertions mirroring the paper:
    //  - Q12 subsumes Q11 (its relation is a superset)
    assert(byName("Q12").output >= byName("Q11").output)
    //  - among the windowed contact queries Q9–Q12, the union query Q12
    //    produces the most output, as in Table II (full Q11/Q12 dominance
    //    over Q8 is a large-scale effect: co-visit pairs grow quadratically)
    val windowed = Seq("Q9", "Q10", "Q11", "Q12").map(byName(_).output)
    assert(byName("Q12").output == windowed.max,
           "Q12 should produce the largest output among Q9–Q12")
    //  - structural-only queries report interval time == total time
    Seq("Q1", "Q2", "Q3", "Q4", "Q5").foreach { q =>
      assert(byName(q).intervalSec == byName(q).totalSec)
    }
    //  - temporal queries pay extra for Step 3
    Seq("Q6", "Q8", "Q11", "Q12").foreach { q =>
      assert(byName(q).totalSec >= byName(q).intervalSec)
    }
    //  - selection-only queries (Q1-Q4) are the cheapest, as in the paper
    val cheap = Seq("Q1", "Q2", "Q3", "Q4").map(byName(_).totalSec).max
    assert(cheap <= Seq("Q11", "Q12").map(byName(_).totalSec).min,
           "selection-only queries should be cheaper than the close-contact queries")
  }

  private def writeJson(file: String, scale: String, runs: Int,
                        rows: Seq[Experiments.QueryTiming]): Unit = {
    val conf = spark.conf
    val queries = rows.map { r =>
      f"""    {"query": "${r.name}", "interval_s": ${r.intervalSec}%.3f, "total_s": ${r.totalSec}%.3f, """ +
      f""""binding_s": ${r.bindingSec}%.3f, "output": ${r.output}, "band_rows": ${r.bandRows}}"""
    }
    val json =
      s"""{
         |  "scale": "$scale",
         |  "nproc": ${Runtime.getRuntime.availableProcessors},
         |  "master": "${spark.sparkContext.master}",
         |  "shuffle_partitions": ${conf.get("spark.sql.shuffle.partitions")},
         |  "aqe": ${conf.get("spark.sql.adaptive.enabled")},
         |  "runs": $runs,
         |  "queries": [
         |${queries.mkString(",\n")}
         |  ]
         |}
         |""".stripMargin
    Files.writeString(Paths.get(file), json)
    println(s"wrote ${Paths.get(file).toAbsolutePath}")
  }

  test("baseline: naive point-based evaluation vs interval-based (paper's Steps 1-2)") {
    // The paper has no external baseline; its own polynomial point algorithm
    // (Theorem C.1) is the natural one. Compare on a small graph where the
    // point evaluator is feasible.
    val g = ContactTracing.generate(spark, ContactTracing.Params(persons = 300, seed = 5L))
    Experiments.warm(g)
    val q = Parser.parseMatch(PaperQueries.q9)
    val path = Desugar.matchPath(q)

    def time[A](f: => A): (Double, A) = {
      val t0 = System.nanoTime(); val a = f; ((System.nanoTime() - t0) / 1e9, a)
    }
    val (tInterval, nInterval) = time {
      val ev = new IntervalEvaluator(g)
      Band.toPoints(ev.evalBands(path)).count()
    }
    val (tPoint, nPoint) = time {
      val ev = new PointEvaluator(g.toTpg)
      ev.eval(path).size
    }
    println(f"== Baseline on 300 persons, Q9: interval=$tInterval%.1f s ($nInterval tuples), " +
            f"point=$tPoint%.1f s ($nPoint tuples) ==")
    assert(nInterval == nPoint, "evaluators must agree on the result")
  }
}
