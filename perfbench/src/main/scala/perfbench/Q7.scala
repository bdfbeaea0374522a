package perfbench

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType

import repro.Oracle
import repro.core.{EmitClause, StreamSqlSession, WindowTvfRewriter}
import repro.nexmark.NexGen
import repro.paperexample.PaperDataset
import repro.tvr.{Diff, Times, Tvr}

/** The paper's Q7 as one SQL text, registered over a bid stream and run
  * through `StreamSqlSession` as a table and under three EMIT modes.
  *
  * @param bids      `bidtime, price, item, ptime`, persisted
  * @param wmTickMs  processing-time period of the perfect watermark
  * @param delay     the interval of the `AFTER DELAY` call
  */
final class Q7(ctx: Ctx, bids: DataFrame, wmTickMs: Long, delay: String) {
  import Q7._

  private val spark = ctx.spark

  private val texts: Seq[(String, String)] = Seq(
    "table"    -> PaperDataset.q7Sql,
    "stream"   -> (PaperDataset.q7Sql + " EMIT STREAM"),
    "after_wm" -> (PaperDataset.q7Sql + " EMIT STREAM AFTER WATERMARK"),
    "delay_wm" -> (PaperDataset.q7Sql + s" EMIT STREAM AFTER DELAY INTERVAL $delay AND AFTER WATERMARK"),
  )

  private val wm  = ctx.span("tvr.perfect_wm")(NexGen.perfectWatermark(bids, wmTickMs))
  private val tvr = Tvr.appendOnly(bids, "ptime").withWatermark("bidtime", wm)
  private val session = ctx.span("core.register") {
    val s = new StreamSqlSession(spark)
    s.registerStream("Bid", tvr)
    s
  }

  private var tableSchema: StructType = _

  /** One `sql` call, run until its result is collected. */
  def call(mode: String): Array[Row] = {
    val df = session.sql(texts.toMap.apply(mode))
    if (mode == "table") tableSchema = df.schema
    val rows = df.collect()
    if (mode != "table") {
      ctx.counters(s"core.changelog_rows.$mode") = rows.length.toDouble
      ctx.counters(s"core.undo_rows.$mode") = rows.count(_.getAs[Boolean]("undo")).toDouble
    }
    rows
  }

  /** Outside the timed region: every changelog folds to the table rows, and
    * the table rows equal DuckDB's Q7 over the same bids.
    */
  def gate(results: Map[String, Array[Row]]): Unit = {
    val table = Diff.toBag(results("table").toSeq)
    for (mode <- Seq("stream", "after_wm", "delay_wm"))
      ctx.check(s"q7 $mode changelog folds to the table rows")(fold(results(mode)) == table)
    ctx.check("q7 table rows equal DuckDB's Q7") {
      val df = spark.createDataFrame(
        spark.sparkContext.parallelize(results("table").toSeq, 1), tableSchema)
      Oracle.assertEquivalent(
        df.select(unix_millis(col("wstart")).as("wstart"), unix_millis(col("wend")).as("wend"),
          unix_millis(col("bidtime")).as("bidtime"), col("price"), col("item")),
        DuckQ7,
        "bid" -> bids.select(unix_millis(col("bidtime")).as("bidms"), col("price"), col("item")))
      true
    }
  }

  /** Replays the tick sequence of the calls through the layers' public
    * functions, one span per layer, so each layer's time and Spark work can
    * be read apart: snapshot, analysis, execution, diff and completeness.
    */
  def replay(): Unit = {
    ctx.span("core.alignment")(session.alignmentOf(PaperDataset.q7Sql))
    ctx.span("core.parse")(texts.foreach { case (_, t) => WindowTvfRewriter.rewrite(EmitClause.split(t)._1) })
    val replaySql = WindowTvfRewriter.rewrite(PaperDataset.q7Sql).sql
    // registerStream re-creates the changelog from its RDD; do the same, so
    // the replayed plans scan the same kind of relation as the calls.
    val replayed = Tvr(spark.createDataFrame(tvr.changelog.rdd, tvr.changelog.schema), tvr.eventTime)
    var prev     = Map.empty[Seq[Any], Int]
    for (p <- tvr.tickPtimes) {
      ctx.span("tvr.snapshot")(replayed.snapshotAt(p).count())
      val df = ctx.span("core.plan") {
        // The session registers its own views again before each evaluation.
        replayed.snapshotAt(p).createOrReplaceTempView("Bid")
        val d = spark.sql(replaySql)
        d.queryExecution.executedPlan
        d
      }
      val rows = ctx.span("core.execute")(df.collect())
      val (ins, dels) = ctx.span("tvr.diff") {
        val bag = Diff.toBag(rows.toSeq)
        val d   = Diff.bagDiff(prev, bag)
        prev = bag
        d
      }
      ctx.span("tvr.watermark") {
        rows.foreach(r => wm.isComplete(Times.ms(r.getAs[java.sql.Timestamp]("wend")), p))
      }
      ctx.counters("core.ticks") += 1
      ctx.counters("core.snapshot_rows") += rows.length
      ctx.counters("tvr.diff_rows") += ins.size + dels.size
      ctx.counters("tvr.watermark_calls") += rows.length
    }
  }
}

object Q7 {
  val Modes: Seq[String] = Seq("table", "stream", "after_wm", "delay_wm")

  /** Net rows of a changelog with `undo` as its sixth column. */
  def fold(changelog: Array[Row]): Map[Seq[Any], Int] = {
    val bag = mutable.Map.empty[Seq[Any], Int].withDefaultValue(0)
    changelog.foreach { r => bag(r.toSeq.take(5)) += (if (r.getBoolean(5)) -1 else 1) }
    bag.filter(_._2 != 0).toMap
  }

  private val TenMin = 10 * Times.MinuteMs

  /** Q7 in DuckDB's SQL over `bid(bidms, price, item)`, as B5 states it. */
  val DuckQ7: String =
    s"""WITH w AS (
       |  SELECT CAST(bidms AS BIGINT) AS bms, CAST(price AS BIGINT) AS price, item,
       |         CAST(floor(CAST(bidms AS BIGINT) / $TenMin.0) AS BIGINT) * $TenMin AS wstart
       |  FROM bid
       |), m AS (SELECT wstart, MAX(price) AS maxprice FROM w GROUP BY wstart)
       |SELECT w.wstart AS wstart, w.wstart + $TenMin AS wend,
       |       w.bms AS bidtime, w.price AS price, w.item AS item
       |FROM w JOIN m ON w.wstart = m.wstart AND w.price = m.maxprice""".stripMargin
}
