package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.tvr.Times

/** Emission policy of the incremental engine — the engine-level analogue
  * of the EMIT modifiers (Extensions 4–6).
  */
sealed trait EngineMode
object EngineMode {
  /** Materialize every change as it happens (default changelog). */
  case object Continuous extends EngineMode
  /** Materialize a window once, when the watermark passes its end;
    * drop later (late) inputs; GC state for closed windows.
    */
  case object AfterWatermark extends EngineMode
}

final case class BatchMetric(
    batch: Int,
    wmMs: Long,
    arrivedRows: Long,     // cumulative input rows seen
    retainedRows: Long,    // input rows a general operator must keep
    stateWindows: Long,    // per-window aggregate state entries held
    emitted: Long,         // changelog rows emitted this batch
    dropped: Long,         // late rows dropped this batch
)

final case class EngineResult(
    finalOutput: DataFrame, // (wstart, wend, bidtime, price, item)
    perBatch: Seq[BatchMetric],
    totalEmitted: Long,
    maxStateWindows: Long,
    maxRetainedRows: Long,
    totalDropped: Long,
    wallMs: Long,
)

/** A deterministic micro-batch execution engine for windowed aggregation
  * over an out-of-order stream — the scalable counterpart of the
  * reference evaluator in [[repro.core.StreamSqlSession]] and our analog
  * of a Structured-Streaming/Flink runtime (Appendix B.2.3): operator
  * state lives in a DataFrame, watermarks decide completeness, state for
  * closed windows is garbage-collected, and late rows are dropped.
  *
  * The aggregation is NEXMark Q7's: top bid (price, bidtime, item) per
  * tumbling event-time window. The input is split into `numBatches`
  * arrival-ordered micro-batches; after each batch the *perfect*
  * watermark (min event time of everything not yet arrived) advances.
  */
final class MicroBatchEngine(spark: SparkSession) {

  /** Run over `events` (columns bidtime, price, item, ptime). */
  def run(events: DataFrame, windowMs: Long, numBatches: Int, mode: EngineMode): EngineResult = {
    val t0 = System.nanoTime()

    val withBatch = events
      .withColumn("__batch", ntile(numBatches).over(Window.orderBy(col("ptime"), col("bidtime"))) - 1)
      .withColumn("wstart", timestamp_millis(
        floor(unix_millis(col("bidtime")) / windowMs) * windowMs))
      .withColumn("wend", timestamp_millis(
        floor(unix_millis(col("bidtime")) / windowMs) * windowMs + windowMs))
      .persist()
    withBatch.count() // materialize

    // Perfect watermark after each batch: (min bidtime of later batches) - 1.
    val minsByBatch = withBatch
      .groupBy("__batch").agg(min(unix_millis(col("bidtime"))).as("m"))
      .collect().map(r => (r.getInt(0).toLong, r.getLong(1))).toMap
    val wmAfter = new Array[Long](numBatches)
    var running = Long.MaxValue / 2
    for (b <- (numBatches - 1) to 0 by -1) {
      wmAfter(b) = running - 1
      running = math.min(running, minsByBatch.getOrElse(b.toLong, Long.MaxValue / 2))
    }

    val topCol = struct(col("price"), col("bidtime"), col("item")).as("top")

    var state: DataFrame = spark.emptyDataFrame
    var stateInitialized = false
    val metrics   = Vector.newBuilder[BatchMetric]
    var emittedT  = 0L
    var droppedT  = 0L
    var maxState  = 0L
    var maxRetain = 0L
    var arrived   = 0L
    var wmPrev    = Long.MinValue

    for (b <- 0 until numBatches) {
      val batchRaw = withBatch.where(col("__batch") === b)
      val batchN   = batchRaw.count()
      arrived += batchN

      // Extension 2: inputs for already-complete groups are dropped.
      val (batch, dropped) = mode match {
        case EngineMode.AfterWatermark =>
          val live = batchRaw.where(unix_millis(col("wend")) > wmPrev)
          val d    = batchN - live.count()
          (live, d)
        case EngineMode.Continuous => (batchRaw, 0L)
      }
      droppedT += dropped

      val batchAgg = batch
        .groupBy("wstart", "wend")
        .agg(max(struct(col("price"), col("bidtime"), col("item"))).as("top"))

      // Merge into state; keep each window's previous top (`__old`, null
      // for a new window) to count the changelog rows the merge emits.
      val merged =
        if (!stateInitialized)
          batchAgg
            .withColumn("__changed", lit(true))
            .withColumn("__old", lit(null).cast(batchAgg.schema("top").dataType))
        else {
          val s = state.select(col("wstart"), col("wend"), col("top").as("__old"))
          s.join(batchAgg.withColumnRenamed("top", "__new"), Seq("wstart", "wend"), "full_outer")
            .withColumn("top",
              when(col("__new").isNull, col("__old"))
                .when(col("__old").isNull, col("__new"))
                .when(col("__new") > col("__old"), col("__new"))
                .otherwise(col("__old")))
            .withColumn("__changed", col("__old").isNull || col("top") =!= col("__old"))
            .select(col("wstart"), col("wend"), col("top"), col("__changed"), col("__old"))
        }
      val mergedP = merged.localCheckpoint(true)
      stateInitialized = true

      val wm = wmAfter(b)
      val (emitted, nextState) = mode match {
        case EngineMode.Continuous =>
          // Every changed window emits its new top, plus an undo of the
          // previous top when one existed (a window's first materialization
          // has none) — both counted in one action.
          val counts = mergedP
            .agg(count(when(col("__changed"), 1)), count(when(col("__changed") && col("__old").isNotNull, 1)))
            .head()
          (counts.getLong(0) + counts.getLong(1), mergedP.drop("__changed", "__old"))
        case EngineMode.AfterWatermark =>
          val closing = mergedP.where(unix_millis(col("wend")) <= wm)
          val open    = mergedP.where(unix_millis(col("wend")) > wm)
          (closing.count(), open.drop("__changed", "__old"))
      }
      state = nextState.localCheckpoint(true)
      emittedT += emitted

      val stateWindows = state.count()
      val retained = mode match {
        case EngineMode.AfterWatermark =>
          withBatch.where(col("__batch") <= b && unix_millis(col("wend")) > wm).count()
        case EngineMode.Continuous => arrived
      }
      maxState = math.max(maxState, stateWindows)
      maxRetain = math.max(maxRetain, retained)
      metrics += BatchMetric(b, wm, arrived, retained, stateWindows, emitted, dropped)
      wmPrev = wm
    }

    // For AfterWatermark, the final output is everything emitted =
    // closed windows' tops over non-late input; recompute it set-based
    // for the equivalence checks. For Continuous it is the final state.
    val finalOut = (mode match {
      case EngineMode.Continuous => state
      case EngineMode.AfterWatermark =>
        // replay drops: a row is dropped if the watermark before its
        // batch had already closed its window.
        val wmBefore = udf((b: Int) => if (b == 0) Long.MinValue else wmAfter(b - 1))
        withBatch
          .where(unix_millis(col("wend")) > wmBefore(col("__batch")))
          .groupBy("wstart", "wend")
          .agg(max(struct(col("price"), col("bidtime"), col("item"))).as("top"))
    }).select(
      col("wstart"), col("wend"),
      col("top.bidtime").as("bidtime"), col("top.price").as("price"), col("top.item").as("item"))

    val res = EngineResult(
      finalOutput = finalOut,
      perBatch = metrics.result(),
      totalEmitted = emittedT,
      maxStateWindows = maxState,
      maxRetainedRows = maxRetain,
      totalDropped = droppedT,
      wallMs = (System.nanoTime() - t0) / 1000000L,
    )
    withBatch.unpersist()
    res
  }

  /** Human-readable watermark for logs. */
  def fmtWm(ms: Long): String = if (ms <= Long.MinValue / 4) "-inf" else Times.fmt(ms)
}
