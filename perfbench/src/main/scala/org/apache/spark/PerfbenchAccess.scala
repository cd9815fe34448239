package org.apache.spark

/** Waits until every posted listener event has been delivered, so counters
  * kept by a SparkListener are complete when a timed call returns.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
