package perfbench

import java.nio.file.Path

import scala.collection.immutable.ListMap

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.XxHash64Function
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Expected outputs.
  *
  *   - `fig1`: the paper's exact binding tables for Figure 1, written out
  *     below; their digests are computed with the same function as the
  *     engine's output, so no recorded number stands in for the paper.
  *   - `pairs`: the member set of every checked expression on Figure 1,
  *     recorded in `goldens.json` from the Spark interval evaluator, which
  *     shares no code with the two driver-local checkers.
  */
object Goldens {

  /** Row count and order-independent digest of a binding table. */
  final case class Table(rows: Long, digest: Long)

  /** Count and digest in one aggregation: the XOR of a 64-bit hash of
    * every row. Binding tables are sets, so XOR loses nothing to duplicates.
    */
  def countAndDigest(df: DataFrame): DataFrame =
    df.agg(count(lit(1)).as("rows"),
           coalesce(bit_xor(xxhash64(df.columns.toSeq.map(c => col(s"`$c`")): _*)), lit(0L)).as("digest"))

  def read(df: DataFrame): Table = {
    val r = df.collect()(0)
    Table(r.getLong(0), r.getLong(1))
  }

  // ---- fig1: the paper's tables (Section IV over Figure 1) ---------------

  private val L = LongType
  private val I = IntegerType

  /** Q1/Q5 are structural-only, so their tables are coalesced
    * (variables, ts, te); the others are point tables (x, x_time, ...).
    */
  val fig1Tables: Map[String, (Seq[DataType], Seq[Seq[Long]])] = Map(
    "Q1" -> (Seq(L, I, I), Seq(
      Seq(1L, 1, 9), Seq(2L, 1, 9), Seq(3L, 1, 7), Seq(6L, 2, 9), Seq(7L, 5, 8))),
    "Q6" -> (Seq(L, I, L, I), Seq(Seq(6L, 9, 6, 8))),
    "Q9" -> (Seq(L, I), Seq(Seq(3L, 4), Seq(7L, 5), Seq(7L, 6))),
    "Q12" -> (Seq(L, I), Seq(
      Seq(3L, 4), Seq(3L, 7), Seq(7L, 5), Seq(7L, 6), Seq(7L, 7), Seq(7L, 8))))

  /** Count and digest of a paper table, hashed on the driver exactly as
    * `xxhash64` (seed 42, columns chained left to right) hashes a row.
    */
  def fig1(name: String): Table = {
    val (types, rows) = fig1Tables(name)
    val digest = rows.map { r =>
      r.zip(types).foldLeft(42L) {
        case (h, (v, IntegerType)) => XxHash64Function.hash(v.toInt, IntegerType, h)
        case (h, (v, t))           => XxHash64Function.hash(v, t, h)
      }
    }.foldLeft(0L)(_ ^ _)
    Table(rows.size.toLong, digest)
  }

  // ---- recorded member sets -------------------------------------------------

  /** Member tuples `(o1, t1, o2, t2)` of each checked expression. */
  type Members = Map[String, Set[(Long, Int, Long, Int)]]

  def load(path: Path): Members =
    Json.fields(Json.read(path).get("pairs")).map { case (q, ms) =>
      q -> Json.elements(ms).map { m =>
        (m.get(0).asLong, m.get(1).asInt, m.get(2).asLong, m.get(3).asInt)
      }.toSet
    }.toMap

  def toJson(m: Members): Map[String, Any] = Map(
    "pairs" -> ListMap(m.toSeq.sortBy(_._1).map { case (q, ms) =>
      q -> ms.toSeq.sorted.map { case (a, b, c, d) => Seq(a, b, c, d) }
    }: _*))
}
