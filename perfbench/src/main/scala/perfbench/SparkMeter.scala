package perfbench

import scala.collection.mutable

import org.apache.spark.PerfbenchAccess
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan

/** Spark work seen from outside the engine, through a SparkListener.
  *
  * Counters are cumulative; [[snapshot]] first waits for the listener bus to
  * deliver every posted event, so the difference of two snapshots taken
  * around a call is exactly the work that call caused.
  */
final class SparkMeter(spark: SparkSession) extends SparkListener {
  import SparkMeter._

  private var jobs = 0L
  private var stages = 0L
  private var tasks = 0L
  private var shuffleBytes = 0L
  private var storedBytes = 0L
  private val jobStart = mutable.HashMap.empty[Int, Long]
  /** (submission, completion) in ms of every ended job, in end order. */
  private val jobIntervals = mutable.ArrayBuffer.empty[(Long, Long)]

  spark.sparkContext.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs += 1
    jobStart(e.jobId) = e.time
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach(s => jobIntervals += ((s, e.time)))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stages += 1
    tasks += e.stageInfo.numTasks
    Option(e.stageInfo.taskMetrics).foreach(m => shuffleBytes += m.shuffleWriteMetrics.bytesWritten)
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val i = e.blockUpdatedInfo
    if (i.storageLevel.isValid) storedBytes += i.memSize + i.diskSize
  }

  def snapshot(): Snap = {
    PerfbenchAccess.drainListeners(spark.sparkContext)
    synchronized {
      Snap(jobs, stages, tasks, shuffleBytes, storedBytes, jobIntervals.size,
           CodegenMetrics.METRIC_COMPILATION_TIME.getCount)
    }
  }

  def delta(a: Snap, b: Snap): Delta = {
    val busyMs = synchronized(SparkMeter.unionLength(jobIntervals.slice(a.jobsEnded, b.jobsEnded).toSeq))
    Delta(b.jobs - a.jobs, b.stages - a.stages, b.tasks - a.tasks,
          (b.shuffleBytes - a.shuffleBytes) / SparkMeter.MB,
          (b.storedBytes - a.storedBytes) / SparkMeter.MB,
          busyMs / 1e3, b.codegen - a.codegen)
  }

  /** Runs `f` and returns its result with the Spark work it caused. */
  def measure[T](f: => T): (T, Delta) = {
    val a = snapshot()
    val r = f
    (r, delta(a, snapshot()))
  }
}

object SparkMeter {
  val MB: Double = 1024.0 * 1024.0

  final case class Snap(jobs: Long, stages: Long, tasks: Long, shuffleBytes: Long,
                        storedBytes: Long, jobsEnded: Int, codegen: Long)

  final case class Delta(jobs: Long, stages: Long, tasks: Long, shuffleMb: Double,
                         storedMb: Double, jobBusyS: Double, codegen: Long)

  /** Total length of the union of closed intervals. Concurrent jobs overlap,
    * so summing their durations would count the same wall time twice.
    */
  def unionLength(iv: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    iv.sortBy(_._1).foreach { case (s, e) =>
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** Node count of a logical plan. `foreach` follows children only, so a
    * cached relation counts as one leaf instead of its whole cached plan.
    */
  def planNodes(p: LogicalPlan): Long = {
    var n = 0L
    p.foreach(_ => n += 1)
    n
  }
}
