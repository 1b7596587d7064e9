package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** Test-only bridges to `private[spark]` state, hence in Spark's package. */
object SparkTestHooks {

  /** Waits until every event posted so far has reached the registered
    * listeners: the bus delivers job and task events asynchronously, so a
    * counter read right after a job could miss that job's events.
    */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** The running SparkContext, reachable from inside a local-mode task. */
  def activeContext: SparkContext = SparkContext.getActive.get

  /** The values of the broadcasts the driver's block manager still holds. */
  def liveBroadcastValues(sc: SparkContext): Seq[Any] = {
    val bm = sc.env.blockManager
    bm.getMatchingBlockIds {
      case BroadcastBlockId(_, "") => true
      case _ => false
    }.flatMap(id => bm.getLocalValues(id).toSeq.flatMap(_.data.toList))
  }
}
