package repro.core

import java.util.concurrent.atomic.LongAdder

/** Wraps a metric space and counts distance evaluations — the cost model
  * every algorithm in the paper is analyzed under, and a wall-clock-free
  * way to compare algorithms at reduced scale (Spark job overhead would
  * otherwise floor the sub-second runs).
  *
  * Every fan-out passes the space to its chunks through [[ParRunner]]: in
  * a call's data (one broadcast per call) or behind a [[Shared]] handle
  * (one broadcast per NNDescent+ build, and one per graph for
  * `GraphDOD.run`, kept across its queries). [[LocalRunner]] hands it over
  * as is. Under [[SparkRunner]] the count is complete only in `local[*]`
  * mode, where a broadcast value is shared by reference inside the one
  * JVM, so task-side evaluations land in the same adder; on a cluster each
  * executor would count into its own copy. Callers read [[evaluations]]
  * before/after a run.
  *
  * A `within` test is one evaluation, like the `dist` it answers for, even
  * when the base space stops it early.
  */
final class CountingSpace(val base: MetricSpace) extends MetricSpace {
  private val adder = new LongAdder

  def n: Int = base.n
  def dist(i: Int, j: Int): Double = { adder.increment(); base.dist(i, j) }
  override def within(i: Int, j: Int, r: Double): Boolean = { adder.increment(); base.within(i, j, r) }
  override def roundingSlack: Double = base.roundingSlack

  def evaluations: Long = adder.sum()
}
