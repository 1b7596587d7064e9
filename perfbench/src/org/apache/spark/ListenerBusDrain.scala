package org.apache.spark

/** Waits until every event posted so far has reached the registered
  * listeners. `SparkContext.listenerBus` is `private[spark]`, hence this
  * one-line bridge in Spark's package: without it, counters read right
  * after a job could miss that job's task-end events, which the bus
  * delivers asynchronously.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
