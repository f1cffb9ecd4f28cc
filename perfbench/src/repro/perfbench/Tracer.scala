package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable

/** Spans recorded by the benchmark around its own calls into the program:
  * each span adds its wall time to a named phase, and while it is open the
  * Spark jobs it submits carry the phase name as a local property, so that
  * [[PhaseListener]] can attribute jobs, tasks and shuffle bytes to it.
  */
final class Tracer(sc: SparkContext) {
  final case class Span(name: String, startNs: Long, endNs: Long)

  private val spans = mutable.ArrayBuffer.empty[Span]
  val listener = new PhaseListener
  sc.addSparkListener(listener)

  def span[A](name: String)(f: => A): A = {
    val prev = sc.getLocalProperty(PhaseListener.Key)
    sc.setLocalProperty(PhaseListener.Key, name)
    val t0 = System.nanoTime()
    try f
    finally {
      spans += Span(name, t0, System.nanoTime())
      sc.setLocalProperty(PhaseListener.Key, prev)
    }
  }

  /** Total seconds spent in spans named `name`. */
  def seconds(name: String): Double =
    spans.iterator.filter(_.name == name).map(s => (s.endNs - s.startNs) / 1e9).sum

  def all: Seq[Span] = spans.toSeq

  /** Blocks until the listener has seen every event posted so far. */
  def drain(): Unit = org.apache.spark.ListenerBusAccess.waitUntilEmpty(sc)
}

/** Per-phase Spark engine counters. Events arrive on Spark's listener bus
  * thread; a job is attributed to the phase that was open when it was
  * submitted, and a task to the phase of its stage's job.
  */
final class PhaseListener extends SparkListener {
  final class Counts { var jobs = 0L; var tasks = 0L; var shuffleBytes = 0L }

  private val byPhase = mutable.Map.empty[String, Counts]
  private val stagePhase = mutable.Map.empty[Int, String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val phase = Option(e.properties).flatMap(p => Option(p.getProperty(PhaseListener.Key)))
    phase.foreach { ph =>
      byPhase.getOrElseUpdate(ph, new Counts).jobs += 1
      e.stageIds.foreach(stagePhase(_) = ph)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stagePhase.get(e.stageId).foreach { ph =>
      val c = byPhase.getOrElseUpdate(ph, new Counts)
      c.tasks += 1
      Option(e.taskMetrics).foreach(m => c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def counts(phase: String): Counts = synchronized(byPhase.getOrElse(phase, new Counts))
}

object PhaseListener {
  val Key = "repro.perfbench.phase"
}
