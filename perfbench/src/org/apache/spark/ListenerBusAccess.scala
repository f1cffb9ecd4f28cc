package org.apache.spark

/** The listener bus is private to Spark; draining it lets the benchmark read
  * complete per-phase counters right after the traced calls return.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
