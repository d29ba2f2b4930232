package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Jobs, tasks and shuffle bytes the Spark scheduler reports. */
final class SparkCounters extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  val shuffleBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
  }
}

/** Counter values at one instant: Spark's (after the listener bus drained)
  * and the JVM's accumulated GC time.
  */
final case class Counts(jobs: Long, tasks: Long, shuffleBytes: Long, gcMs: Long) {
  def -(o: Counts): Counts =
    Counts(jobs - o.jobs, tasks - o.tasks, shuffleBytes - o.shuffleBytes, gcMs - o.gcMs)
}

/** One traced interval around a call into a layer. `solve` keys the spans
  * of one solve; `parent` names the span that caused it ("" for a root).
  */
final case class Span(solve: Int, name: String, parent: String,
                      startNs: Long, endNs: Long, delta: Counts) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder. Spans are only kept, never printed, until the
  * benchmark writes its trace file at the end.
  */
final class Tracer(spark: SparkSession) {
  private val counters = new SparkCounters
  spark.sparkContext.addSparkListener(counters)
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty

  def counts(): Counts = {
    ListenerBusDrain(spark.sparkContext)
    Counts(counters.jobs.get, counters.tasks.get, counters.shuffleBytes.get, Tracer.gcMillis())
  }

  def span[T](solve: Int, name: String, parent: String = "")(body: => T): T = {
    val c0 = counts()
    val t0 = System.nanoTime()
    val out = body
    val t1 = System.nanoTime()
    spans += Span(solve, name, parent, t0, t1, counts() - c0)
    out
  }

  def get(solve: Int, name: String): Span =
    spans.find(s => s.solve == solve && s.name == name)
      .getOrElse(sys.error(s"no span $name for solve $solve"))
}

object Tracer {
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Live heap in MB after forced full collections. */
  def liveHeapMb(): Double = {
    (1 to 2).foreach(_ => System.gc())
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}
