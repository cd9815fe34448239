package perfbench

import scala.collection.mutable

/** In-memory spans recorded around calls into the engine's modules.
  *
  * A span has a name (the layer call), a start and an end in nanoseconds
  * since the tracer was created, the id of the span that caused it (0 for a
  * root) and the id of the query it belongs to. Spans stay in memory and are
  * written out once, when the run ends.
  */
final class Tracer {
  import Tracer.Span

  private val origin = System.nanoTime()
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil

  /** Runs `f` inside a span; `f` may attach counters to the span it gets. */
  def span[T](name: String, qid: String)(f: Span => T): T = {
    val s = Span(spans.size + 1, open.headOption.map(_.id).getOrElse(0), qid, name,
                 System.nanoTime() - origin, -1L, mutable.LinkedHashMap.empty)
    spans += s
    open = s :: open
    try f(s)
    finally {
      s.end = System.nanoTime() - origin
      open = open.tail
    }
  }

  def all: Seq[Span] = spans.toSeq

  def seconds(s: Span): Double = (s.end - s.start) / 1e9

  /** Violations of the span tree: a parent that does not exist, belongs to
    * another query or does not enclose its child.
    */
  def problems(): Seq[String] = {
    val byId = spans.map(s => s.id -> s).toMap
    spans.toSeq.flatMap { s =>
      if (s.end < s.start) Seq(s"span ${s.id} ${s.name} never ended")
      else if (s.parent == 0) Nil
      else byId.get(s.parent) match {
        case None => Seq(s"span ${s.id} ${s.name}: parent ${s.parent} missing")
        case Some(p) if p.qid != s.qid => Seq(s"span ${s.id} ${s.name}: parent has another query id")
        case Some(p) if p.start > s.start || p.end < s.end =>
          Seq(s"span ${s.id} ${s.name}: parent ${p.id} ${p.name} does not enclose it")
        case _ => Nil
      }
    }
  }

  /** Spans with their self time: the duration minus the part the children
    * cover (children run one after another, so their durations add up).
    */
  def toJson: Seq[Map[String, Any]] = {
    val childSum = spans.groupMapReduce(_.parent)(seconds)(_ + _)
    spans.toSeq.map { s =>
      Map("id" -> s.id, "parent" -> s.parent, "qid" -> s.qid, "name" -> s.name,
          "start_ns" -> s.start, "end_ns" -> s.end,
          "self_s" -> (seconds(s) - childSum.getOrElse(s.id, 0.0)),
          "counters" -> s.attrs)
    }
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, qid: String, name: String,
                        start: Long, var end: Long,
                        attrs: mutable.LinkedHashMap[String, Double])
}
