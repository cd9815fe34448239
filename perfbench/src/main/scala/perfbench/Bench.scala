package perfbench

import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.bench.Experiments
import repro.core._
import repro.core.Ast._
import repro.data.ContactTracing
import repro.tpg.{Band, FigureOne, Itpg}

/** Metric catalogue. Every run prints every end-to-end metric (untraced) or
  * every per-layer metric (traced), with its unit, whatever the workload;
  * a layer a workload does not reach reports 0.
  */
object Metrics {
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "mix_s" -> "s", "mix_cpu_s" -> "s", "op_geomean_ms" -> "ms",
    "op_tail_ms" -> "ms")

  val perLayer: Seq[(String, String)] = Seq(
    "Parser.parse_us" -> "us", "Desugar.matchPath_us" -> "us",
    "IntervalEvaluator.s" -> "s", "IntervalEvaluator.band_rows" -> "count",
    "IntervalEvaluator.jobs" -> "count", "IntervalEvaluator.job_busy_s" -> "s",
    "IntervalEvaluator.driver_s" -> "s", "IntervalEvaluator.plan_nodes" -> "count",
    "IntervalEvaluator.shuffle_mb" -> "MB",
    "Repetition.s" -> "s", "Repetition.jobs" -> "count", "Repetition.band_rows" -> "count",
    "Band.toPoints_s" -> "s", "Band.points" -> "count", "Band.points_per_band" -> "ratio",
    "MatchEvaluator.s" -> "s", "MatchEvaluator.rows" -> "count", "MatchEvaluator.jobs" -> "count",
    "MatchEvaluator.job_busy_s" -> "s", "MatchEvaluator.driver_s" -> "s",
    "MatchEvaluator.plan_nodes" -> "count", "MatchEvaluator.shuffle_mb" -> "MB",
    "ContactTracing.generate_s" -> "s", "Itpg.warm_s" -> "s", "Itpg.state_rows" -> "count",
    "PairChecker.collect_s" -> "s", "PairChecker.check_us" -> "us",
    "PairChecker.true_share" -> "ratio",
    "TupleEvalSolver.check_us" -> "us", "TupleEvalSolver.true_share" -> "ratio",
    "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count",
    "spark.codegen_compiles" -> "count", "spark.stored_mb" -> "MB",
    "trace.overhead_s" -> "s")

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile (as numpy's default). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)
}

/** One benchmark run: set-up, then closed-loop passes over the workload's
  * operation list from one thread until the measurement window is used up.
  */
final class Bench(spark: SparkSession, val workload: Workload, seed: Long, seconds: Double,
                  traceRun: Boolean, members: Goldens.Members) {
  import Bench.Pass

  val meter = new SparkMeter(spark)
  /** Whether the current pass records spans. */
  private var trace = traceRun
  /** The workload's query list; the self-check shortens it. */
  var queryList: Seq[String] = Workload.queries(workload)
  val tracer = new Tracer
  var attempted = 0L
  var failed = 0L
  val failures = mutable.ArrayBuffer.empty[String]
  /** Per-layer sums of the current pass. */
  private var layer = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
  private val setupLayer = mutable.LinkedHashMap.empty[String, Double]

  private def now(): Long = System.nanoTime()
  private val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = java.lang.management.ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  /** CPU seconds used by every thread of this JVM so far, the JIT
    * compiler's and the collector's included.
    */
  private def processCpu(): Double = os.getProcessCpuTime / 1e9
  /** CPU seconds used so far by the live Java threads: the query thread and
    * Spark's task and scheduler threads, but not the JIT compiler or the
    * collector, whose work depends on what earlier passes left compiled.
    */
  private def cpu(): Double =
    threads.getThreadCpuTime(threads.getAllThreadIds).filter(_ > 0).sum / 1e9
  private def secs(t0: Long): Double = (now() - t0) / 1e9
  private val gcs = java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  /** Seconds this JVM's collectors have spent collecting so far. */
  private def gcTime(): Double = gcs.map(_.getCollectionTime).sum / 1e3

  private def fail(what: String): Unit = {
    failed += 1
    if (failures.size < 50) failures += what
  }

  /** Runs `f` in a span when tracing, else plainly. */
  private def traced[T](name: String, qid: String)(f: Option[Tracer.Span] => T): T =
    if (trace) tracer.span(name, qid)(s => f(Some(s))) else f(None)

  // ---- set-up -------------------------------------------------------------

  val setupReps = 3

  /** The graph and what the passes need, built `setupReps` times from a
    * cold cache; the last build is kept.
    */
  private def buildOnce(rep: Int): (Itpg, Option[Map[Long, LocalObject]]) = {
    spark.catalog.clearCache()
    val qid = s"setup$rep"
    val g = FigureOne.itpg(spark)
    workload match {
      case Workload.Fig1 =>
        traced("Itpg.warm", qid) { _ =>
          val t0 = now()
          Experiments.warm(g)
          note("Itpg.warm_s", secs(t0))
        }
        (g, None)
      case Workload.Pairs =>
        // The checkers read the collected graph only; no Spark cache is warmed.
        traced("PairChecker.collect", qid) { _ =>
          val t0 = now()
          val objs = PairChecker.collectObjects(g)
          note("PairChecker.collect_s", secs(t0))
          (g, Some(objs))
        }
    }
  }

  private val setupSamples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private def note(k: String, v: Double): Unit =
    setupSamples.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v

  var setupS: Double = 0.0
  var graph: Itpg = _
  var objects: Map[Long, LocalObject] = Map.empty

  def setup(sessionS: Double): Unit = {
    // First, so that clearing its caches cannot touch the benchmark's graph;
    // not part of setup_s.
    if (trace && workload == Workload.Fig1) generateContacts()
    val reps = (1 to setupReps).map { i =>
      val t0 = now()
      val (g, local) = buildOnce(i)
      graph = g
      local.foreach(objects = _)
      secs(t0)
    }
    val t0 = now()
    warmUp()
    val warmUpS = secs(t0)
    setupS = sessionS + Metrics.median(reps) + warmUpS
    setupParts = ListMap("session_s" -> sessionS, "build_s" -> reps, "warm_up_s" -> warmUpS)
    if (trace) setupLayer("Itpg.state_rows") = (graph.nodes.count() + graph.edges.count()).toDouble
    setupSamples.foreach { case (k, v) => setupLayer(k) = Metrics.median(v.toSeq) }
  }

  /** The parts of `setup_s`, for the results file. */
  private var setupParts: Map[String, Any] = Map.empty

  /** Persons and seed of the `ContactTracing` graph the traced `fig1` run
    * generates before its set-up. No workload queries a generated graph (a
    * pass over one does not fit the benchmark's time), so this keeps the
    * generator's cost measured, at a scale that costs seconds.
    */
  val contactPersons = 300
  val contactSeed = 42L

  /** Times `ContactTracing.generate` with its rows materialised, median of
    * `setupReps` runs from a cold cache.
    */
  private def generateContacts(): Unit = (1 to setupReps).foreach { i =>
    spark.catalog.clearCache()
    tracer.span("ContactTracing.generate", s"contacts$i") { s =>
      val t0 = now()
      val g = ContactTracing.generate(spark, ContactTracing.Params(contactPersons, seed = contactSeed))
      val rows = g.nodes.count() + g.edges.count()
      val t = secs(t0)
      note("ContactTracing.generate_s", t)
      s.attrs("s") = t
      s.attrs("state_rows") = rows.toDouble
    }
  }

  private def warmUp(): Unit = workload match {
    case Workload.Pairs =>
      // One whole pass, so the first measured pass does not still wait for
      // the JIT to compile the microsecond checks of Q6 and Q7; a fixed
      // draw, so the warm-up (part of setup_s) is the same whatever the seed.
      val rnd = new Random(0L)
      Workload.pairExprs.foreach { case (name, _) => pairChecks(name, rnd, pairsPerExpr, record = false) }
    case Workload.Fig1 =>
      // One untimed pass over the query list, so the JIT has compiled the
      // measured queries' paths before the first measured pass (after one
      // warm-up query outside the list, the JVM still spent 1.8 times as
      // much CPU in the first measured pass as in the third).
      queryList.foreach { q =>
        Goldens.read(Goldens.countAndDigest(Bench.bindingTable(graph, Parser.parseMatch(
          PaperQueries.all.toMap.apply(q)))))
      }
  }

  // ---- golden lookup --------------------------------------------------------

  private val fig1Gold: Map[String, Goldens.Table] =
    Goldens.fig1Tables.keys.map(q => q -> Goldens.fig1(q)).toMap

  /** Overrides used by the harness self-check to plant a wrong golden. */
  var goldenOverride: Map[String, Goldens.Table] = Map.empty

  private def checkTable(q: String, got: Goldens.Table): Unit = {
    val want = goldenOverride.getOrElse(q, fig1Gold(q))
    if (got != want) fail(s"$q: got $got, want $want")
  }

  // ---- query passes (fig1) --------------------------------------------------

  /** The end-to-end operation: MATCH text to a counted binding table. */
  private def runQuery(pass: Int, q: String): Unit = {
    attempted += 1
    val text = PaperQueries.all.toMap.apply(q)
    try {
      if (!trace) checkTable(q, Goldens.read(Goldens.countAndDigest(
        Bench.bindingTable(graph, Parser.parseMatch(text)))))
      else tracedQuery(s"$pass:$q", q, text)
    } catch {
      case e: Exception => fail(s"$q threw ${e.getClass.getSimpleName}: ${e.getMessage}")
    }
  }

  /** One query with a span around each layer call. */
  private def tracedQuery(qid: String, q: String, text: String): Unit =
    tracer.span("query", qid) { _ =>
      val mq = tracer.span("Parser.parse", qid) { s =>
        val t0 = now(); val r = Parser.parseMatch(text); layer("Parser.parse_us") += secs(t0) * 1e6; r
      }
      val path = tracer.span("Desugar.matchPath", qid) { s =>
        val t0 = now(); val r = Desugar.matchPath(mq); layer("Desugar.matchPath_us") += secs(t0) * 1e6; r
      }
      val ev = new IntervalEvaluator(graph)
      val held = mutable.ArrayBuffer.empty[DataFrame]
      val (bands, nBands) = tracer.span("IntervalEvaluator.evalBands", qid) { s =>
        val t0 = now()
        val (((b, nodes), n), d) = meter.measure {
          Bench.repeats(path).foreach { rp =>
            tracer.span("Repetition", qid) { rs =>
              val t1 = now()
              val (n, dr) = meter.measure {
                val df = ev.evalBands(rp).persist(); held += df; df.count()
              }
              add(rs, "Repetition", secs(t1), Seq("jobs" -> dr.jobs.toDouble, "band_rows" -> n.toDouble))
            }
          }
          val df = ev.evalBands(path)
          // Counted before persisting: afterwards the plan is one cached leaf.
          val nodes = SparkMeter.planNodes(df.queryExecution.optimizedPlan)
          df.persist()
          held += df
          ((df, nodes), df.count())
        }
        layerSpark(s, "IntervalEvaluator", secs(t0), d,
          Seq("band_rows" -> n.toDouble, "plan_nodes" -> nodes.toDouble))
        (b, n)
      }
      tracer.span("Band.toPoints", qid) { s =>
        val t0 = now()
        val pts = Band.toPoints(bands).count()
        add(s, "Band", secs(t0), Seq("points" -> pts.toDouble), timeKey = "toPoints_s")
        s.attrs("points_per_band") = if (nBands == 0) 0.0 else pts.toDouble / nBands
      }
      held.foreach(_.unpersist())
      tracer.span("MatchEvaluator.bindings", qid) { s =>
        val t0 = now()
        val ((tab, agg), d) = meter.measure {
          val agg = Goldens.countAndDigest(
            Bench.bindingTable(new IntervalEvaluator(graph), mq))
          (Goldens.read(agg), agg)
        }
        layerSpark(s, "MatchEvaluator", secs(t0), d,
          Seq("rows" -> tab.rows.toDouble,
              "plan_nodes" -> SparkMeter.planNodes(agg.queryExecution.optimizedPlan).toDouble))
        checkTable(q, tab)
      }
    }

  private def add(s: Tracer.Span, layerName: String, t: Double, counters: Seq[(String, Double)],
                  timeKey: String = "s"): Unit = {
    layer(s"$layerName.$timeKey") += t
    s.attrs("s") = t
    counters.foreach { case (k, v) => layer(s"$layerName.$k") += v; s.attrs(k) = v }
  }

  private def layerSpark(s: Tracer.Span, layerName: String, t: Double, d: SparkMeter.Delta,
                         extra: Seq[(String, Double)]): Unit =
    add(s, layerName, t, Seq(
      "jobs" -> d.jobs.toDouble, "job_busy_s" -> d.jobBusyS, "driver_s" -> (t - d.jobBusyS),
      "shuffle_mb" -> d.shuffleMb) ++ extra)

  private def queryPass(pass: Int): Pass = {
    layer = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    val s0 = meter.snapshot()
    val c0 = cpu()
    val p0 = processCpu()
    val g0 = gcTime()
    val t0 = now()
    val lat = queryList.map { q =>
      val t1 = now()
      runQuery(pass, q)
      q -> secs(t1)
    }
    val wall = secs(t0)
    Pass(wall, cpu() - c0, processCpu() - p0, gcTime() - g0, lat, meter.delta(s0, meter.snapshot()), layer.toMap)
  }

  // ---- pairs passes ----------------------------------------------------------

  private lazy val universe: IndexedSeq[(Long, Int)] =
    for (o <- objects.keys.toIndexedSeq.sorted; t <- graph.omegaLo to graph.omegaHi) yield (o, t)

  /** The `n` checks of one expression, all distinct, so no check is
    * answered from the memo of an earlier check of the same tuple: up to
    * `n / 2` members drawn without replacement (every member when there are
    * fewer, as on Figure 1), and distinct pairs outside the member set for
    * the rest, a fixed sample of PTO × PTO that is the same in every run, so
    * a pass does the same work whatever the seed. The seed's `rnd` draws the
    * members and orders the checks.
    */
  private def checkList(name: String, rnd: Random, n: Int): Seq[((Long, Int, Long, Int), Boolean)] = {
    val members = this.members(name)
    val inside = rnd.shuffle(members.toIndexedSeq.sorted).take(n / 2).map(_ -> true)
    val fixed = new Random(name.hashCode.toLong)
    val outside = Iterator.continually {
      val (o1, t1) = universe(fixed.nextInt(universe.size))
      val (o2, t2) = universe(fixed.nextInt(universe.size))
      (o1, t1, o2, t2)
    }.filterNot(members.contains).distinct.take(n - inside.size).map(_ -> false).toSeq
    rnd.shuffle(outside ++ inside)
  }

  /** `n` membership checks of one expression with a fresh checker. Returns
    * the per-check latencies.
    */
  private def pairChecks(name: String, rnd: Random, n: Int, record: Boolean,
                         qid: String = ""): Seq[Double] = {
    val (kind, path) = Workload.pairExprs.toMap.apply(name)
    val tuples = checkList(name, rnd, n)
    if (record) checkCounts(name) = (tuples.count(_._2), tuples.count(!_._2))
    val check: ((Long, Int, Long, Int)) => Boolean = kind match {
      case "PairChecker" =>
        val c = new PairChecker(graph.omegaLo, graph.omegaHi, objects)
        t => c.check(t._1, t._2, t._3, t._4, path)
      case _ =>
        val c = new TupleEvalSolver(graph.omegaLo, graph.omegaHi, objects)
        t => c.check(t._1, t._2, t._3, t._4, path)
    }
    tuples.map { case (t, want) =>
      val t0 = now()
      val got =
        try {
          if (trace && record) tracer.span(s"$kind.check", qid)(_ => check(t))
          else check(t)
        } catch {
          case e: Exception => if (record) fail(s"$name $t threw ${e.getClass.getSimpleName}"); !want
        }
      val dt = secs(t0)
      if (record) {
        attempted += 1
        if (got != want) fail(s"$name $t: got $got, want $want")
        if (trace) {
          layer(s"$kind.check_us") += dt * 1e6
          layer(s"$kind.checks") += 1
          if (got) layer(s"$kind.trues") += 1
        }
      }
      dt
    }
  }

  /** (member, non-member) checks per pass of each expression. */
  private val checkCounts = mutable.LinkedHashMap.empty[String, (Int, Int)]

  /** Checks per expression per pass; the self-check lowers it. */
  var pairsPerExpr = 100
  private lazy val pairRnd = new Random(seed)

  private def pairsPass(pass: Int): Pass = {
    layer = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    val s0 = meter.snapshot()
    val c0 = cpu()
    val p0 = processCpu()
    val g0 = gcTime()
    val t0 = now()
    val lat = Workload.pairExprs.flatMap { case (name, _) =>
      val qid = s"$pass:$name"
      val ls = if (trace) tracer.span("expression", qid)(_ => pairChecks(name, pairRnd, pairsPerExpr, record = true, qid))
               else pairChecks(name, pairRnd, pairsPerExpr, record = true)
      ls.map(name -> _)
    }
    val wall = secs(t0)
    val used = cpu() - c0
    for (k <- Seq("PairChecker", "TupleEvalSolver")) {
      val n = layer.getOrElse(s"$k.checks", 0.0)
      layer(s"$k.true_share") = if (n == 0) 0.0 else layer(s"$k.trues") / n
    }
    Pass(wall, used, processCpu() - p0, gcTime() - g0, lat, meter.delta(s0, meter.snapshot()), layer.toMap)
  }

  // ---- measurement -------------------------------------------------------------

  private def onePass(i: Int): Pass =
    if (workload == Workload.Pairs) pairsPass(i) else queryPass(i)

  /** Passes from one thread, closed loop: a pass starts when the previous
    * one has finished, as long as the window has time left. At least one
    * pass always runs; the last may end after the window.
    */
  private def passes(window: Double, first: Int): Seq[Pass] = {
    val t0 = now()
    val out = mutable.ArrayBuffer(onePass(first))
    while (secs(t0) < window) out += onePass(first + out.size)
    out.toSeq
  }

  var untraced: Seq[Pass] = Nil
  var tracedPasses: Seq[Pass] = Nil

  /** Untraced `mix_s` that the tracing overhead is taken against. */
  var untracedMix: Double = Double.NaN
  var untracedMixSource = ""

  /** Measures the passes. A traced run takes its untraced base from
    * `baseMix` (untraced runs made earlier in this checkout) when given,
    * else from one untraced pass of its own.
    */
  def measure(baseMix: Option[Double] = None): Unit = {
    if (!trace) {
      untraced = passes(seconds, 1)
      untracedMix = Metrics.median(untraced.map(_.wall))
      untracedMixSource = "this run"
    } else {
      baseMix match {
        case Some(m) =>
          untracedMix = m
          untracedMixSource =
            "median mix_s of the untraced runs in this build directory made from the same sources"
        case None =>
          trace = false
          untraced = Seq(onePass(0))
          trace = true
          untracedMix = untraced.head.wall
          untracedMixSource = "one untraced pass of this run"
      }
      tracedPasses = passes(seconds, 1)
    }
  }

  def endToEnd: Map[String, Double] = {
    val ps = untraced
    val mix = Metrics.median(ps.map(_.wall))
    val mixCpu = Metrics.median(ps.map(_.cpu))
    def per(f: Seq[Double] => Double) = Metrics.median(ps.map(p => f(p.latencies.map(_._2 * 1e3))))
    // The tail of a pass: its slowest query, or for checks the p90. Higher
    // percentiles rest on the few checks that fill a fresh checker's memo of
    // sub-results, and move between runs of the same code; p90 still has 60
    // of a pass's 600 checks beyond it.
    val tail: Seq[Double] => Double =
      if (workload == Workload.Pairs) Metrics.quantile(_, 0.90) else _.max
    Map("setup_s" -> setupS, "mix_s" -> mix, "mix_cpu_s" -> mixCpu,
        "op_geomean_ms" -> per(Metrics.geomean), "op_tail_ms" -> per(tail))
  }

  def perLayer: Map[String, Double] = {
    val ps = tracedPasses
    def med(f: Pass => Double): Double = Metrics.median(ps.map(f))
    val fromPasses = Metrics.perLayer.map(_._1).map { k =>
      k -> med(_.layers.getOrElse(k, 0.0))
    }.toMap
    val pointsPerBand = med { p =>
      val b = p.layers.getOrElse("IntervalEvaluator.band_rows", 0.0)
      if (b == 0) 0.0 else p.layers.getOrElse("Band.points", 0.0) / b
    }
    fromPasses ++ setupLayer ++ Map(
      "Band.points_per_band" -> pointsPerBand,
      "spark.jobs" -> med(_.spark.jobs.toDouble),
      "spark.stages" -> med(_.spark.stages.toDouble),
      "spark.tasks" -> med(_.spark.tasks.toDouble),
      "spark.codegen_compiles" -> med(_.spark.codegen.toDouble),
      "spark.stored_mb" -> med(_.spark.storedMb),
      "trace.overhead_s" -> (med(_.wall) - untracedMix))
  }

  /** Everything a run measured, for the results file. */
  def details: Map[String, Any] = {
    def passJson(p: Pass) = Map(
      "wall_s" -> p.wall, "cpu_s" -> p.cpu, "process_cpu_s" -> p.processCpu, "gc_s" -> p.gc, "latencies_s" -> p.latencies,
      "spark" -> Map("jobs" -> p.spark.jobs, "stages" -> p.spark.stages, "tasks" -> p.spark.tasks,
                     "shuffle_mb" -> p.spark.shuffleMb, "stored_mb" -> p.spark.storedMb,
                     "job_busy_s" -> p.spark.jobBusyS, "codegen_compiles" -> p.spark.codegen),
      "layers" -> p.layers)
    Map(
      "workload" -> workload.name, "seed" -> seed, "seconds" -> seconds,
      "setup_parts" -> setupParts, "setup_reps" -> setupReps,
      "setup_samples" -> setupSamples.map { case (k, v) => k -> v.toSeq },
      "untraced_passes" -> untraced.map(passJson), "traced_passes" -> tracedPasses.map(passJson),
      "samples" -> untraced.map(_.latencies.size).sum,
      "pair_checks_per_pass" -> checkCounts.map { case (k, (in, out)) =>
        k -> Map("members" -> in, "non_members" -> out) },
      "untraced_mix_s" -> untracedMix, "untraced_mix_source" -> untracedMixSource,
      "failed_share" -> (if (attempted == 0) 0.0 else failed.toDouble / attempted),
      "failures" -> failures.toSeq,
      "spans" -> (if (tracedPasses.nonEmpty) tracer.toJson else Nil),
      "span_problems" -> tracer.problems())
  }
}

object Bench {

  /** One pass: its wall time, the CPU time of the Java threads and of the
    * whole JVM, the time spent in garbage collection, each operation's
    * latency, the Spark work and (traced) the per-layer sums.
    */
  final case class Pass(wall: Double, cpu: Double, processCpu: Double, gc: Double, latencies: Seq[(String, Double)], spark: SparkMeter.Delta,
                        layers: Map[String, Double])

  /** The binding table the paper prints: coalesced for structural-only
    * queries (Q1–Q5), point-based otherwise.
    */
  def bindingTable(g: Itpg, q: MatchQuery): DataFrame = bindingTable(new IntervalEvaluator(g), q)

  def bindingTable(ev: IntervalEvaluator, q: MatchQuery): DataFrame =
    if (Desugar.isStructuralOnly(q)) MatchEvaluator.bindingsCoalesced(ev, q)
    else MatchEvaluator.bindingsPoints(ev, q)

  /** Distinct `Repeat` subexpressions of `p`, innermost first. */
  def repeats(p: Path): Seq[Path] = {
    val out = mutable.LinkedHashSet.empty[Path]
    def path(p: Path): Unit = p match {
      case Concat(a, b)        => path(a); path(b)
      case Union(a, b)         => path(a); path(b)
      case r @ Repeat(x, _, _) => path(x); out += r
      case Tst(t)              => test(t)
      case _                   =>
    }
    def test(t: Test): Unit = t match {
      case And(a, b)   => test(a); test(b)
      case Or(a, b)    => test(a); test(b)
      case Not(x)      => test(x)
      case PathCond(x) => path(x)
      case _           =>
    }
    path(p)
    out.toSeq
  }
}
