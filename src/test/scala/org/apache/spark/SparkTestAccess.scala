package org.apache.spark

/** Waits until every posted listener event has been delivered, so the
  * status tracker has seen every job submitted before the call.
  */
object SparkTestAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
