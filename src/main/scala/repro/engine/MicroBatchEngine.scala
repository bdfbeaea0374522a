package repro.engine

import org.apache.spark.sql.{DataFrame, Observation, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

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
    retainedRows: Long,    // input rows a general operator must keep: the
                           // rows of every window still in state (all
                           // arrivals under Continuous)
    stateWindows: Long,    // per-window aggregate state entries held
    emitted: Long,         // changelog rows emitted this batch
    dropped: Long,         // late rows dropped this batch
)

/** Outcome of one [[MicroBatchEngine.run]]. The totals and maxima fold
  * `perBatch`; `finalOutput` is lazy and costs nothing until evaluated.
  */
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

  /** Run over `events` (columns bidtime, price, item, ptime).
    *
    * One aggregate over the persisted, batch-numbered input gives every
    * batch's size and minimum event time, hence the perfect watermark.
    * Each batch then runs one shuffle and one Spark action: the batch's
    * rows and the state rows are unioned and grouped per window, the
    * batch metrics are observed on that frame, and it is checkpointed.
    * State rows are `(wstart, wend, top, n)`, `n` counting the input rows
    * the window has absorbed, so the retained input is the sum of `n`
    * over the windows left in state.
    */
  def run(events: DataFrame, windowMs: Long, numBatches: Int, mode: EngineMode): EngineResult = {
    val t0      = System.nanoTime()
    val afterWm = mode == EngineMode.AfterWatermark

    val withBatch = events
      .withColumn("__batch", ntile(numBatches).over(Window.orderBy(col("ptime"), col("bidtime"))) - 1)
      .withColumn("wstart", timestamp_millis(
        floor(unix_millis(col("bidtime")) / windowMs) * windowMs))
      .withColumn("wend", timestamp_millis(
        floor(unix_millis(col("bidtime")) / windowMs) * windowMs + windowMs))
      .persist()

    // Fills the cache; per batch: (rows, min bidtime).
    val batchStats = withBatch
      .groupBy("__batch").agg(count(lit(1)), min(unix_millis(col("bidtime"))))
      .collect().map(r => r.getInt(0) -> (r.getLong(1), r.getLong(2))).toMap

    // Perfect watermark after each batch: (min bidtime of later batches) - 1.
    val wmAfter = new Array[Long](numBatches)
    var running = Long.MaxValue / 2
    for (b <- (numBatches - 1) to 0 by -1) {
      wmAfter(b) = running - 1
      running = math.min(running, batchStats.get(b).fold(Long.MaxValue / 2)(_._2))
    }

    val topCol = struct(col("price"), col("bidtime"), col("item"))
    val wendMs = unix_millis(col("wend"))

    var state: DataFrame =
      withBatch.where(lit(false)).select(col("wstart"), col("wend"), topCol.as("top"), lit(0L).as("n"))
    val metrics   = Vector.newBuilder[BatchMetric]
    var emittedT  = 0L
    var droppedT  = 0L
    var maxState  = 0L
    var maxRetain = 0L
    var arrived   = 0L
    var wmPrev    = Long.MinValue

    for (b <- 0 until numBatches) {
      val wm = wmAfter(b)
      arrived += batchStats.get(b).fold(0L)(_._1)

      // One row per window: the state's top (`__old`, null for a new
      // window) and row count, and the batch's top and row count.
      val batchRows = withBatch.where(col("__batch") === b)
        .select(col("wstart"), col("wend"), topCol.as("__new"))
      val stateRows = state
        .select(col("wstart"), col("wend"), col("top").as("__old"), col("n").as("__n0"))
      val merged = batchRows.unionByName(stateRows, allowMissingColumns = true)
        .groupBy("wstart", "wend")
        .agg(max("__old").as("__old"), max("__n0").as("__n0"),
             max("__new").as("__new"), count("__new").as("__rows"))
        .select(
          col("wstart"), col("wend"), col("__old"), col("__rows"),
          greatest(col("__old"), col("__new")).as("top"),
          (coalesce(col("__n0"), lit(0L)) + col("__rows")).as("n"),
          // Extension 2: inputs for already-complete windows are dropped;
          // such a window was closed before this batch, so not in state.
          (lit(afterWm) && wendMs <= wmPrev).as("__late"),
          (lit(afterWm) && wendMs <= wm).as("__closed"),
          (col("__new").isNotNull && (col("__old").isNull || col("__new") > col("__old"))).as("__raised"))

      val live    = !col("__late")
      val changed = live && col("__raised")
      val open    = !col("__closed")
      val obs     = new Observation(s"batch-$b")
      val checkpointed = merged.observe(obs,
          coalesce(sum(when(col("__late"), col("__rows"))), lit(0L)).as("dropped"),
          count(when(changed, 1)).as("changed"),
          // A changed window with a previous top also emits its undo.
          count(when(changed && col("__old").isNotNull, 1)).as("undo"),
          count(when(live && col("__closed"), 1)).as("closing"),
          count(when(open, 1)).as("open"),
          coalesce(sum(when(open, col("n"))), lit(0L)).as("retained"))
        .localCheckpoint(true)
      val m = obs.get.view.mapValues(_.asInstanceOf[Long]).toMap
      state = checkpointed.where(open).select(col("wstart"), col("wend"), col("top"), col("n"))

      val emitted = if (afterWm) m("closing") else m("changed") + m("undo")
      emittedT += emitted
      droppedT += m("dropped")
      maxState = math.max(maxState, m("open"))
      maxRetain = math.max(maxRetain, m("retained"))
      metrics += BatchMetric(b, wm, arrived, m("retained"), m("open"), emitted, m("dropped"))
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
}
