package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.ContactTracing
import repro.tpg.{Band, Itpg}

/** Shared measurement harness for the two evaluation tables.
  *
  * Protocol (mirrors Table II's columns):
  *   - structural-only queries (Q1–Q5): output stays temporally coalesced;
  *     interval-based time == total time == time to materialize + count the
  *     coalesced binding table.
  *   - temporal-navigation queries (Q6–Q12): interval-based time = Steps 1–2
  *     (materialize + count the banded relation of the whole MATCH path);
  *     total time adds Step 3 (point expansion + count); output size is the
  *     number of point-based result tuples.
  *   - binding time is the counted binding table from a fresh evaluator:
  *     for Q6–Q12 the banded table over the chain's pieces, joined without
  *     points and expanded only at its bound positions (so Q9–Q12 expand
  *     `x_time` alone, not the path's `(t1, t2)` pairs); for Q1–Q5 the
  *     coalesced run above.
  *   - band rows are the rows of the banded relation (Q6–Q12) or of the
  *     coalesced table (Q1–Q5).
  * Reported numbers are averages over `runs` executions (paper: 5).
  */
object Experiments {

  final case class QueryTiming(name: String, intervalSec: Double, totalSec: Double, output: Long,
                               bindingSec: Double, bandRows: Long)

  private def now(): Long = System.nanoTime()
  private def sec(dt: Long): Double = dt / 1e9

  /** Force the graph's shared caches so query timings exclude data load. */
  def warm(g: Itpg): Unit = {
    g.objects.count(); g.existence.count()
    g.nodes.cache().count(); g.edges.cache().count()
  }

  def timeQuery(g: Itpg, name: String, query: String, runs: Int): QueryTiming = {
    val q = Parser.parseMatch(query)
    val samples = (1 to runs).map { _ =>
      val ev = new IntervalEvaluator(g)
      if (Desugar.isStructuralOnly(q)) {
        val t0 = now()
        val out = MatchEvaluator.bindingsCoalesced(ev, q).count()
        val dt = sec(now() - t0)
        (dt, dt, out, dt, out)
      } else {
        val path = Desugar.matchPath(q)
        val t0 = now()
        val bands = ev.evalBands(path).persist()
        val rows = bands.count()
        val t1 = now()
        val out = Band.toPoints(bands).count()
        val t2 = now()
        bands.unpersist()
        val t3 = now()
        MatchEvaluator.bindingsPoints(new IntervalEvaluator(g), q).count()
        (sec(t1 - t0), sec(t2 - t0), out, sec(now() - t3), rows)
      }
    }
    QueryTiming(name, samples.map(_._1).sum / runs, samples.map(_._2).sum / runs, samples.head._3,
                samples.map(_._4).sum / runs, samples.head._5)
  }

  /** Run Q1–Q12 over `g` and print a Table-II-shaped report. */
  def tableII(g: Itpg, runs: Int, log: String => Unit): Seq[QueryTiming] = {
    warm(g)
    PaperQueries.all.map { case (name, query) =>
      val r = timeQuery(g, name, query, runs)
      log(f"${r.name}%-4s interval=${r.intervalSec}%8.3f s  total=${r.totalSec}%8.3f s  " +
          f"binding=${r.bindingSec}%8.3f s  output=${r.output}%,12d")
      r
    }
  }

  final case class ScaleStats(name: String, persons: Int, nodes: Long, edges: Long,
                              tempNodes: Long, tempEdges: Long)

  /** Generate the requested scales and print a Table-I-shaped report. */
  def tableI(spark: SparkSession, scales: Seq[String], positivity: Double,
             log: String => Unit): Seq[ScaleStats] = {
    scales.map { s =>
      val persons = ContactTracing.paperScales.find(_._1 == s).get._2
      val g = ContactTracing.generateScale(spark, s, positivity)
      val (n, e, tn, te) = ContactTracing.stats(g)
      log(f"$s%-4s persons=$persons%,8d nodes=$n%,8d edges=$e%,11d tempNodes=$tn%,9d tempEdges=$te%,11d")
      ScaleStats(s, persons, n, e, tn, te)
    }
  }
}
