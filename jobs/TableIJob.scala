package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.Experiments

/** spark-submit entry point reproducing paper Table I (graph statistics).
  *
  * Usage: `spark-submit --class repro.jobs.TableIJob repro.jar [G1 G2 …]`
  * (default scales G1–G6; pass any of G1..G10).
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("trpq-table-i")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val scales = if (args.nonEmpty) args.toSeq else Seq("G1", "G2", "G3", "G4", "G5", "G6")
    println("Table I - temporal property graphs used in experiments")
    Experiments.tableI(spark, scales, positivity = 0.10, println)
    spark.stop()
  }
}
