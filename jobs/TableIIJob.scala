package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.Experiments
import repro.data.ContactTracing

/** spark-submit entry point reproducing paper Table II (Q1–Q12 execution
  * time and output size).
  *
  * Usage: `spark-submit --class repro.jobs.TableIIJob repro.jar [scale] [runs]`
  * with scale one of G1..G10 (default G3 — see DESIGN.md §6 on why the
  * checked-in run uses a mid-size graph) and runs the number of repetitions
  * to average (default 3; the paper uses 5).
  */
object TableIIJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("trpq-table-ii")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val scale = args.headOption.getOrElse("G3")
    val runs = args.lift(1).map(_.toInt).getOrElse(3)
    val g = ContactTracing.generateScale(spark, scale, positivity = 0.10)
    println(s"Table II - execution time of Q1..Q12 on $scale (runs=$runs)")
    Experiments.tableII(g, runs, println)
    spark.stop()
  }
}
