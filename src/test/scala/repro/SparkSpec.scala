package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.SparkTestHooks
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * The driver heap is set by `Test / javaOptions` in build.sbt:
  * SPARK_DRIVER_MEM if set, else half of the host's memory, clamped to
  * 2-8 GiB. Broadcast joins are off so that [[repro.core.SqlDOD]], whose
  * joins are the only ones the tests run, plans its distance self-join as a
  * partitioned cartesian product instead of broadcasting the whole table to
  * every task.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** `body`'s result and the number of Spark jobs it started. */
  def countingJobs[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    SparkTestHooks.drainListenerBus(sc) // earlier jobs' events must not reach the listener
    sc.addSparkListener(listener)
    try {
      val a = body
      SparkTestHooks.drainListenerBus(sc)
      (a, jobs.get)
    } finally sc.removeSparkListener(listener)
  }

  /** The values of the broadcasts the driver still holds. */
  def liveBroadcasts: Seq[Any] = SparkTestHooks.liveBroadcastValues(spark.sparkContext)

  /** Whether the driver still holds a broadcast whose value is `value`. */
  def broadcastLive(value: AnyRef): Boolean =
    liveBroadcasts.exists {
      case v: AnyRef => v eq value
      case _ => false
    }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that names the heap and master the run used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"maxHeap=${Runtime.getRuntime.maxMemory >> 20}m " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
