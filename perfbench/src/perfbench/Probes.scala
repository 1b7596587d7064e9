package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.LongAdder
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.core.CountingSpace
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Spark-side counters, registered by the benchmark itself: jobs started,
  * summed task run time, and shuffle bytes written.
  */
final class JobCounters extends SparkListener {
  val jobs = new LongAdder
  val taskBusyMs = new LongAdder
  val shuffleBytes = new LongAdder

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.increment()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) {
      taskBusyMs.add(m.executorRunTime)
      shuffleBytes.add(m.shuffleWriteMetrics.bytesWritten)
    }
  }
}

/** Process-wide JVM counters: collector time and bytes allocated by all
  * live threads (Spark's executor threads are pooled, so they stay live).
  */
object Jvm {
  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMs: Long = collectors.map(c => math.max(0L, c.getCollectionTime)).sum
  def allocBytes: Long = threads.getTotalThreadAllocatedBytes

  private val os =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time used by the whole process so far, in nanoseconds. */
  def cpuNs: Long = os.getProcessCpuTime

  /** Wall-clock instant the JVM started, in epoch milliseconds. */
  def startMs: Long = ManagementFactory.getRuntimeMXBean.getStartTime
}

/** CPU ticks of the whole machine since boot, from the `cpu` line of
  * `/proc/stat`: ticks spent running anything (user, nice, system, irq,
  * softirq) and ticks the hypervisor stole from vCPUs that wanted to run.
  */
final case class HostTicks(busy: Long, steal: Long)

object HostTicks {
  private val stat = java.nio.file.Paths.get("/proc/stat")

  /** Both counts read 0 where `/proc/stat` does not exist. */
  def read(): HostTicks =
    if (!java.nio.file.Files.isReadable(stat)) HostTicks(0L, 0L)
    else {
      val f = java.nio.file.Files.readAllLines(stat).get(0).trim.split("\\s+").drop(1).map(_.toLong)
      HostTicks(busy = f(0) + f(1) + f(2) + f(5) + f(6), steal = f(7))
    }
}

/** Times of one interval: wall seconds, process CPU seconds, and the wall
  * time the interval would have taken had nothing been stolen. The last is
  * wall x busy / (busy + steal) over the machine's ticks in the interval:
  * the stolen share of all the time the vCPUs wanted to run, which holds
  * whether the interval ran on one thread or on all of them.
  */
final case class Timing(wallS: Double, cpuS: Double, unstolenS: Double) {
  def +(o: Timing): Timing = Timing(wallS + o.wallS, cpuS + o.cpuS, unstolenS + o.unstolenS)
}

object Timing {
  val zero: Timing = Timing(0.0, 0.0, 0.0)

  def apply[T](body: => T): (T, Timing) = {
    val h0 = HostTicks.read()
    val u0 = Jvm.cpuNs
    val t0 = System.nanoTime()
    val res = body
    val t1 = System.nanoTime()
    val u1 = Jvm.cpuNs
    val h1 = HostTicks.read()
    val wallS = (t1 - t0) / 1e9
    (res, Timing(wallS, (u1 - u0) / 1e9, unstolen(wallS, h0, h1)))
  }

  /** `wallS` less the share of the machine's ticks stolen between `h0` and `h1`. */
  def unstolen(wallS: Double, h0: HostTicks, h1: HostTicks): Double = {
    val busy = h1.busy - h0.busy
    val steal = h1.steal - h0.steal
    if (busy + steal <= 0) wallS else wallS * busy / (busy + steal)
  }
}

/** Counter readings at one instant. */
final case class Snap(
    ns: Long,
    dists: Long,
    gcMs: Long,
    allocBytes: Long,
    jobs: Long,
    busyMs: Long,
    shuffleBytes: Long,
)

/** One traced call: deltas of every counter across it. */
final case class Span(
    name: String,
    wallS: Double,
    dists: Long,
    gcS: Double,
    allocMB: Double,
    jobs: Long,
    taskBusyS: Double,
    shuffleMB: Double,
) {
  def distsM: Double = dists / 1e6
}

/** Records spans around calls made from the benchmark. Before reading the
  * Spark counters it drains the listener bus, so a job's task-end events are
  * counted in the span that ran the job.
  */
final class Tracer(sc: SparkContext, space: CountingSpace, counters: JobCounters) {
  val spans = ArrayBuffer.empty[Span]

  private def read(ns: Long): Snap = {
    ListenerBusDrain(sc)
    Snap(ns, space.evaluations, Jvm.gcMs, Jvm.allocBytes,
      counters.jobs.sum, counters.taskBusyMs.sum, counters.shuffleBytes.sum)
  }

  def span[T](name: String)(body: => T): (T, Span) = {
    val a = read(System.nanoTime())
    val res = body
    val b = read(System.nanoTime())
    val s = Span(name,
      wallS = (b.ns - a.ns) / 1e9,
      dists = b.dists - a.dists,
      gcS = (b.gcMs - a.gcMs) / 1e3,
      allocMB = (b.allocBytes - a.allocBytes) / 1048576.0,
      jobs = b.jobs - a.jobs,
      taskBusyS = (b.busyMs - a.busyMs) / 1e3,
      shuffleMB = (b.shuffleBytes - a.shuffleBytes) / 1048576.0)
    spans += s
    (res, s)
  }

  /** Sum of the recorded spans with the given name. */
  def total(name: String): Span = {
    val xs = spans.filter(_.name == name)
    Span(name, xs.map(_.wallS).sum, xs.map(_.dists).sum, xs.map(_.gcS).sum, xs.map(_.allocMB).sum,
      xs.map(_.jobs).sum, xs.map(_.taskBusyS).sum, xs.map(_.shuffleMB).sum)
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
