package perfbench

import scala.collection.mutable

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._

/** Spark work: jobs, submitted stages, tasks, shuffle-write bytes, task GC. */
final case class SparkCounts(jobs: Long = 0, stages: Long = 0, tasks: Long = 0,
                             shuffleBytes: Long = 0, gcMs: Long = 0) {
  def +(o: SparkCounts): SparkCounts =
    SparkCounts(jobs + o.jobs, stages + o.stages, tasks + o.tasks,
      shuffleBytes + o.shuffleBytes, gcMs + o.gcMs)
  def -(o: SparkCounts): SparkCounts =
    SparkCounts(jobs - o.jobs, stages - o.stages, tasks - o.tasks,
      shuffleBytes - o.shuffleBytes, gcMs - o.gcMs)
}

/** Counts Spark work in total and per span. A job or stage belongs to the
  * span named by the `perfbench.span` local property of the thread that
  * submitted it; a task belongs to the span of its stage.
  */
final class SpanListener extends SparkListener {
  private val perSpan  = mutable.Map.empty[Int, SparkCounts].withDefaultValue(SparkCounts())
  private val stageOf  = mutable.Map.empty[Int, Int]

  private def spanOf(p: java.util.Properties): Int =
    Option(p).flatMap(q => Option(q.getProperty(Tracer.SpanKey))).fold(0)(_.toInt)

  private def add(span: Int, c: SparkCounts): Unit = synchronized { perSpan(span) += c }

  override def onJobStart(e: SparkListenerJobStart): Unit =
    add(spanOf(e.properties), SparkCounts(jobs = 1))

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    val span = spanOf(e.properties)
    synchronized { stageOf(e.stageInfo.stageId) = span }
    add(span, SparkCounts(stages = 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val span = synchronized(stageOf.getOrElse(e.stageId, 0))
    val m    = Option(e.taskMetrics)
    add(span, SparkCounts(tasks = 1,
      shuffleBytes = m.fold(0L)(_.shuffleWriteMetrics.bytesWritten),
      gcMs = m.fold(0L)(_.jvmGCTime)))
  }

  def total: SparkCounts = synchronized(perSpan.values.foldLeft(SparkCounts())(_ + _))
  def ofSpan(id: Int): SparkCounts = synchronized(perSpan(id))
}

/** Spans around calls into the program's layers, kept in memory.
  *
  * With tracing off `span` only runs its body, so the traced and the
  * untraced run execute the same calls.
  */
final class Tracer(sc: SparkContext, val listener: SpanListener, var enabled: Boolean) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open  = List(0)

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val s = Span(spans.size + 1, name, open.head, System.nanoTime())
      spans += s
      open = s.id :: open
      sc.setLocalProperty(SpanKey, s.id.toString)
      try body
      finally {
        s.endNs = System.nanoTime()
        open = open.tail
        sc.setLocalProperty(SpanKey, if (open.head == 0) null else open.head.toString)
      }
    }

  /** Wait until Spark has delivered every event posted so far. */
  def drain(): Unit = ListenerBusDrain(sc)

  def children(id: Int): Seq[Span] = spans.filter(_.parent == id).toSeq

  /** Spark work submitted inside span `id`, its child spans included. */
  def countsOf(id: Int): SparkCounts =
    children(id).foldLeft(listener.ofSpan(id))((acc, c) => acc + countsOf(c.id))

  /** Wall time of span `id` not covered by its child spans. */
  def selfS(s: Span): Double = s.durS - children(s.id).map(_.durS).sum

  /** Total wall time of spans with this name. */
  def durS(name: String): Double = spans.filter(_.name == name).map(_.durS).sum

  /** Total Spark work of spans with this name. */
  def counts(name: String): SparkCounts =
    spans.filter(_.name == name).foldLeft(SparkCounts())((acc, s) => acc + countsOf(s.id))

  /** Self time per layer, the layer being the span name up to its first dot. */
  def selfByLayer: Seq[(String, Double)] =
    spans.groupBy(_.name.takeWhile(_ != '.')).map { case (l, ss) => l -> ss.map(selfS).sum }
      .toSeq.sortBy(-_._2)

  def toJson: String = spans.map { s =>
    Json.obj(Seq("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs, "self_s" -> selfS(s),
      "jobs" -> listener.ofSpan(s.id).jobs))
  }.mkString("[", ",\n", "]")
}

object Tracer {
  val SpanKey = "perfbench.span"

  final case class Span(id: Int, name: String, parent: Int, startNs: Long) {
    var endNs: Long = startNs
    def durS: Double = (endNs - startNs) / 1e9
  }
}

/** Just enough JSON for flat objects of strings and numbers. */
object Json {
  def str(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")

  def value(v: Any): String = v match {
    case s: String  => str(s)
    case d: Double  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean => b.toString
    case n: Number  => n.toString
    case raw: Raw   => raw.json
    case other      => str(String.valueOf(other))
  }

  final case class Raw(json: String)

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => str(k) + ": " + value(v) }.mkString("{", ", ", "}")
}
