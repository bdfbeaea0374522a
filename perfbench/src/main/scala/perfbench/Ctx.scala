package perfbench

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

/** What every part of a run shares: the session, the tracer, the
  * correctness checks made so far and the counts the layers report.
  */
final class Ctx(val spark: SparkSession, val tracer: Tracer) {
  /** (check, passed, detail) in the order they were made. */
  val checks   = mutable.ArrayBuffer.empty[(String, Boolean, String)]
  /** Per-layer counts that are not Spark work, e.g. ticks or rows. */
  val counters = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
  /** Lines printed next to the metrics but never gated on. */
  val notes    = mutable.ArrayBuffer.empty[String]

  def span[A](name: String)(body: => A): A = tracer.span(name)(body)

  def check(name: String)(ok: => Boolean): Unit = {
    val (passed, detail) =
      try (ok, "")
      catch { case e: Throwable => (false, s"${e.getClass.getSimpleName}: ${e.getMessage}".take(300)) }
    checks += ((name, passed, detail))
  }
}
