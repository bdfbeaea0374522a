package repro.tvr

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** Multiset algebra over relations.
  *
  * A TVR snapshot is a *bag* of rows; the changelog between two snapshots
  * is their bag difference rendered as INSERT rows and retraction
  * (`undo`) rows — the paper's stream/table duality (Section 3.3.1).
  * DataFrame variants serve the engine; driver variants serve the
  * reference evaluator where snapshots are small and must be diffed in
  * processing-time order.
  */
object Diff {

  /** Collapse a bag of rows to `(dataCols..., __cnt)` with cnt >= 1. */
  def counted(df: DataFrame, dataCols: Seq[String]): DataFrame =
    df.groupBy(dataCols.map(col): _*).agg(count(lit(1)).as("__cnt"))

  /** Expand a counted relation back to a bag. */
  def expand(countedDf: DataFrame): DataFrame =
    countedDf
      .withColumn("__i", explode(sequence(lit(1L), col("__cnt"))))
      .drop("__cnt", "__i")

  /** Bag difference `after - before` as a changelog: the data columns plus
    * boolean `undo` (true = row left the relation).
    */
  def changes(before: DataFrame, after: DataFrame): DataFrame = {
    val cols = after.columns.toSeq
    require(before.columns.toSeq == cols, s"schema mismatch: ${before.columns.toSeq} vs $cols")
    val b = counted(before, cols).withColumnRenamed("__cnt", "__b")
    val a = counted(after, cols).withColumnRenamed("__cnt", "__a")
    val joined = b
      .join(a, cols, "full_outer")
      .withColumn("__delta", coalesce(col("__a"), lit(0L)) - coalesce(col("__b"), lit(0L)))
      .where(col("__delta") =!= 0)
    joined
      .withColumn("__i", explode(sequence(lit(1L), abs(col("__delta")))))
      .withColumn("undo", col("__delta") < 0)
      .select(cols.map(col) :+ col("undo"): _*)
  }

  // ------------------------------------------------------------------
  // Driver-side bag operations (reference evaluator; snapshots collected)
  // ------------------------------------------------------------------

  /** A bag of rows keyed by their full value sequence. */
  def toBag(rows: Seq[Row]): Map[Seq[Any], Int] =
    rows.groupBy(r => r.toSeq).map { case (k, v) => (k, v.size) }

  /** The deterministic order of rows (and of group keys) in a changelog:
    * the values' strings, concatenated.
    */
  def sortKey(row: Seq[Any]): String = row.mkString("")

  /** Bag difference: rows to insert (positive multiplicity) and rows to
    * retract, in deterministic ([[sortKey]]) order.
    */
  def bagDiff(before: Map[Seq[Any], Int], after: Map[Seq[Any], Int])
      : (Seq[Seq[Any]], Seq[Seq[Any]]) = {
    val keys = (before.keySet ++ after.keySet).toSeq.sortBy(sortKey)
    val ins  = Vector.newBuilder[Seq[Any]]
    val del  = Vector.newBuilder[Seq[Any]]
    keys.foreach { k =>
      val d = after.getOrElse(k, 0) - before.getOrElse(k, 0)
      if (d > 0) (1 to d).foreach(_ => ins += k)
      else if (d < 0) (1 to -d).foreach(_ => del += k)
    }
    (ins.result(), del.result())
  }
}
