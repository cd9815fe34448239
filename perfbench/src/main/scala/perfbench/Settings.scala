package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Path

import org.apache.spark.sql.SparkSession

/** The settings every number depends on, pinned here and recorded in
  * every results file. (They would also decide the input of a generated
  * workload: `ContactTracing` draws with `rand(seed)`, whose values depend
  * on how `spark.range` is partitioned.)
  */
object Settings {

  /** One task thread: Figure 1 has 20 state rows, so more task threads
    * would only compete with the query thread for the machine's cores (a
    * `fig1` pass took the same time at `local[1]`, `[2]` and `[4]`).
    */
  val threads = 1
  /** One partition per task thread. */
  val shufflePartitions = 1
  /** AQE re-plans every shuffle stage as its own job; on the near-empty
    * relations of these workloads that only adds scheduling. Off, each
    * action is one job.
    */
  val adaptive = false
  /** As in `TableIIJob` and the test suite. */
  val broadcastThreshold: Long = -1L

  def session(buildDir: Path): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toLong)
      .config("spark.sql.adaptive.enabled", adaptive)
      .config("spark.sql.autoBroadcastJoinThreshold", broadcastThreshold)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", buildDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", buildDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Wall-clock start of this JVM, in epoch milliseconds. */
  def processStartMs: Long = ManagementFactory.getRuntimeMXBean.getStartTime

  def describe(spark: SparkSession): Map[String, Any] = {
    val conf = spark.conf
    Map(
      "spark.master" -> spark.sparkContext.master,
      "spark.sql.shuffle.partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.adaptive.enabled" -> conf.get("spark.sql.adaptive.enabled"),
      "spark.sql.autoBroadcastJoinThreshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "java.version" -> System.getProperty("java.version"),
      "java.vm" -> System.getProperty("java.vm.name"),
      "spark.version" -> spark.version,
      "scala.version" -> scala.util.Properties.versionNumberString,
      "os" -> s"${System.getProperty("os.name")} ${System.getProperty("os.arch")}")
  }
}
