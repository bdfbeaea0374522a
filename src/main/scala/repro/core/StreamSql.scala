package repro.core

import scala.collection.mutable

import scala.collection.immutable.TreeMap

import org.apache.spark.sql.{DataFrame, LogicalPlanFrames, Row, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.types._

import repro.core.EventTimeAlignment.Align
import repro.core.expressions.WindowExpressions
import repro.tvr.{Diff, Times, Tvr}

/** The paper's proposal, executable: one SQL text over time-varying
  * relations, materialized as a table or as a stream under the EMIT
  * modifiers of Section 6.5.
  *
  * This is the *reference evaluator*: semantics first. The result TVR is
  * observed (pointwise, per Section 3.1) at every tick — every processing
  * time at which any input changes or any watermark advances — and
  * consecutive snapshots are bag-diffed into the changelog, which is
  * exactly the paper's definition of the stream rendering of a TVR. It is
  * correct by construction and used to pin down every listing in the
  * paper; [[repro.engine.MicroBatchEngine]] is the scalable incremental
  * counterpart benchmarked against it.
  *
  * A stream-mode query is executed once for all ticks: [[Lift]] rewrites
  * its plan so that one Spark execution yields the snapshot at every input
  * change tick, and a watermark-only tick or timer firing reuses the
  * snapshot of the latest change tick at or before it (a result depends
  * only on the input snapshots). Plans [[Lift]] cannot rewrite — global
  * aggregates, LIMIT, full outer joins, subqueries, window functions —
  * fall back to executing the query at every tick
  * ([[liftFallbackReason]] says why). The table rendering executes the
  * query once, at `now`.
  *
  * Responsibilities:
  *   - registry of named TVRs (streams are unbounded append-only TVRs,
  *     tables are degenerate static TVRs);
  *   - EMIT parsing ([[EmitClause]]) and windowing-TVF lowering
  *     ([[WindowTvfRewriter]]);
  *   - watermark-alignment analysis of the compiled plan
  *     ([[EventTimeAlignment]]) to find the output's completeness gates;
  *   - Extension 2 validation ([[RequireEventTimeGrouping]], injected via
  *     `spark.experimental.extraOptimizations`).
  */
final class StreamSqlSession(val spark: SparkSession) {

  WindowExpressions.register(spark)
  StreamSqlSession.installRule(spark)

  // Change ptimes are computed from the unstamped changelog at
  // registration: the bookkeeping aggregation would otherwise itself trip
  // Extension 2's rule on the stamped (unbounded-marked) relation.
  private final case class Registered(tvr: Tvr, unbounded: Boolean, changes: Seq[Long])
  private val tvrs = mutable.LinkedHashMap.empty[String, Registered]

  /** Register an unbounded stream (append-only TVR, usually with an
    * event-time column and watermark).
    */
  def registerStream(name: String, tvr: Tvr): Unit =
    tvrs(name) = Registered(stamp(name, tvr, unbounded = true), unbounded = true, tvr.changePtimes)

  /** Register a classic (bounded, static) table. */
  def registerTable(name: String, df: DataFrame): Unit = {
    val t = Tvr.fromStatic(df)
    tvrs(name) = Registered(t, unbounded = false, t.changePtimes)
  }

  /** Register a bounded TVR (e.g. a recorded stream replayed as a table). */
  def registerBoundedTvr(name: String, tvr: Tvr): Unit =
    tvrs(name) = Registered(stamp(name, tvr, unbounded = false), unbounded = false, tvr.changePtimes)

  /** Stamp alignment metadata into the changelog's *leaf schema*: every
    * attribute derived from it then carries the marker natively, which —
    * unlike alias-level stamping — survives projection collapse in the
    * optimizer.
    */
  private def stamp(name: String, tvr: Tvr, unbounded: Boolean): Tvr = {
    val etCol = tvr.eventTime.map(_.column)
    val bookkeeping = Set(Tvr.PtimeCol, Tvr.UndoCol)
    val schema = StructType(tvr.changelog.schema.fields.map { f =>
      if (etCol.contains(f.name))
        f.copy(metadata = EventTimeAlignment.eventTimeMetadata(name, unbounded))
      else if (unbounded && !bookkeeping.contains(f.name))
        f.copy(metadata = EventTimeAlignment.unboundedMetadata(name))
      else f
    })
    tvr.copy(changelog = spark.createDataFrame(tvr.changelog.rdd, schema))
  }

  // ------------------------------------------------------------------

  private final case class Compiled(
      baseSql: String,
      emit: EmitSpec,
      plan: LogicalPlan,        // analyzed, over the snapshot views
      schema: StructType,
      gates: Seq[(Int, Align)], // output ordinal -> alignment
  )

  /** Result rows of one group, as a bag keyed by full row values. */
  private type Bag = Map[Seq[Any], Int]
  /** A result snapshot indexed by group key. */
  private type Groups = Map[Seq[Any], Bag]

  /** Late-bound per-group key: the gate column values (the event-time
    * window identity), or the whole row when the query has no gates.
    */
  private def groupKey(c: Compiled, row: Seq[Any]): Seq[Any] =
    if (c.gates.isEmpty) row else c.gates.map { case (i, _) => row(i) }

  private def groups(c: Compiled, rows: Seq[Seq[Any]]): Groups =
    rows.groupMapReduce(identity)(_ => 1)(_ + _).groupBy { case (r, _) => groupKey(c, r) }

  private def registerSnapshotViews(p: Long): Unit =
    tvrs.foreach { case (name, Registered(tvr, _, _)) =>
      // Alignment metadata was stamped into the changelog leaf schema at
      // registration and flows through the snapshot derivation.
      tvr.snapshotAt(p).createOrReplaceTempView(name)
    }

  private def compile(sqlText: String): Compiled = {
    val (noEmit, emit) = EmitClause.split(sqlText)
    val rewritten      = WindowTvfRewriter.rewrite(noEmit)
    // Analyze once (views at epoch) for schema + gate discovery.
    registerSnapshotViews(Long.MinValue / 2)
    val df      = spark.sql(rewritten.sql)
    val aligns  = EventTimeAlignment.analyze(df.queryExecution.analyzed)
    val out     = df.queryExecution.analyzed.output
    val all     = out.zipWithIndex.flatMap { case (a, i) => aligns.get(a.exprId).map(i -> _) }
    // Window bounds (non-strict) gate completeness; raw event-time keys
    // (strict) only gate when the query exposes no window bounds.
    val bounds  = all.filter(!_._2.strict)
    val gates   = if (bounds.nonEmpty) bounds else all
    Compiled(rewritten.sql, emit, df.queryExecution.analyzed, df.schema, gates)
  }

  private def eval(c: Compiled, p: Long): Seq[Row] = {
    registerSnapshotViews(p)
    spark.sql(c.baseSql).collect().toSeq
  }

  private def wmOf(source: String) =
    tvrs(source).tvr.eventTime
      .getOrElse(throw new StreamSqlAnalysisException(s"TVR $source has no event time column"))
      .watermark

  /** Whether a group (its gate values) is complete at processing time p. */
  private def groupComplete(c: Compiled, g: Seq[Any], p: Long): Boolean =
    c.gates.zip(g).forall { case ((_, al), v) =>
      v match {
        case null         => false
        case t: java.sql.Timestamp =>
          wmOf(al.source).isComplete(Times.ms(t) + al.deltaMs, p, strict = al.strict)
        case other =>
          throw new StreamSqlAnalysisException(s"gate column value is not a timestamp: $other")
      }
    }

  /** Input change ticks, ascending, <= now. */
  private def changeTicks(now: Long): Seq[Long] =
    tvrs.values.flatMap(_.changes).toSeq.distinct.sorted.filter(_ <= now)

  /** All ticks (input changes and watermark advances), ascending, <= now. */
  private def ticks(now: Long): Seq[Long] =
    tvrs.values.flatMap(r => r.tvr.tickPtimes(r.changes)).toSeq.distinct.sorted.filter(_ <= now)

  /** The query lifted over `ticks` (see [[Lift]]), or why it cannot be. */
  private def lift(c: Compiled, ticks: Seq[Long]): Either[String, LogicalPlan] =
    Lift(c.plan, name =>
      tvrs.collectFirst { case (n, r) if n.equalsIgnoreCase(name) =>
        r.tvr.liftedSnapshots(ticks).queryExecution.analyzed
      })

  /** The result snapshot in effect at each processing time <= now: one
    * execution of the lifted plan, split by tick. A time between change
    * ticks sees the latest change tick at or before it; before the first,
    * the result is empty (every liftable plan maps empty inputs to an
    * empty result).
    */
  private def liftedResults(c: Compiled, plan: LogicalPlan, changes: Seq[Long]): Long => Groups = {
    val n = c.schema.length
    val rows =
      if (changes.isEmpty) Array.empty[Row]
      else LogicalPlanFrames.ofRows(spark, plan).collect()
    val byTick = rows.toSeq.groupBy(_.getLong(n)).map { case (t, rs) => t -> groups(c, rs.map(_.toSeq.take(n))) }
    val at = TreeMap(changes.map(t => t -> byTick.getOrElse(t, Map.empty[Seq[Any], Bag])): _*)
    p => at.rangeTo(p).lastOption.fold(Map.empty[Seq[Any], Bag])(_._2)
  }

  /** The result snapshot at each tick, by executing the query at that tick
    * (the oracle for lifted evaluation, and the fallback). Times after the
    * last tick see the last tick.
    */
  private def perTickResults(c: Compiled, allTicks: Seq[Long]): Long => Groups = {
    val cache = mutable.Map.empty[Long, Groups]
    p => {
      val q = allTicks.lastOption.fold(p)(math.min(_, p))
      cache.getOrElseUpdate(q, groups(c, eval(c, q).map(_.toSeq)))
    }
  }

  // ------------------------------------------------------------------
  // Public API
  // ------------------------------------------------------------------

  /** Execute `sqlText` as observed at processing time `now` (epoch ms).
    *
    * Default / `EMIT AFTER WATERMARK` / `EMIT AFTER DELAY` produce the
    * table rendering; any `EMIT STREAM` variant produces the changelog
    * rendering with `undo`, `ptime`, `ver` columns (Extension 4).
    */
  def sql(sqlText: String, now: Long = Long.MaxValue / 2): DataFrame =
    run(sqlText, now, lifting = true)

  /** [[sql]] with every stream-mode tick executed separately: the oracle
    * the lifted evaluation is tested against.
    */
  private[repro] def sqlPerTick(sqlText: String, now: Long = Long.MaxValue / 2): DataFrame =
    run(sqlText, now, lifting = false)

  private def run(sqlText: String, now: Long, lifting: Boolean): DataFrame = {
    val c = compile(sqlText)
    if (c.emit.isDefaultTable) {
      val rows = eval(c, now)
      spark.createDataFrame(
        spark.sparkContext.parallelize(rows, 1).toJavaRDD(), c.schema)
    } else {
      if (c.emit.afterWatermark && c.gates.isEmpty)
        throw new StreamSqlAnalysisException(
          "EMIT AFTER WATERMARK requires a watermark-aligned event-time column " +
            "in the query output (none found by alignment analysis)")
      val allTicks = ticks(now)
      val changes  = changeTicks(now)
      val lifted   = if (lifting) lift(c, changes).toOption else None
      val curAt    = lifted.fold(perTickResults(c, allTicks))(liftedResults(c, _, changes))
      val changelog = runStream(c, allTicks, now, curAt)
      if (c.emit.stream) changelogDf(c, changelog)
      else tableFromChangelog(c, changelog)
    }
  }

  /** Why `sqlText` cannot be evaluated lifted over ticks (and so executes
    * once per tick in stream mode), or `None` when it can.
    */
  def liftFallbackReason(sqlText: String): Option[String] =
    lift(compile(sqlText), Nil).left.toOption

  /** The output alignment of a query's plan, for inspection/tests. */
  def alignmentOf(sqlText: String): Seq[(String, Align)] = {
    val (noEmit, _) = EmitClause.split(sqlText)
    val rewritten   = WindowTvfRewriter.rewrite(noEmit)
    registerSnapshotViews(Long.MinValue / 2)
    EventTimeAlignment.outputAlignment(spark.sql(rewritten.sql).queryExecution.analyzed)
  }

  // ------------------------------------------------------------------
  // Stream evaluation
  // ------------------------------------------------------------------

  private final case class Change(row: Seq[Any], undo: Boolean, ptime: Long, ver: Int)

  /** Run the materialization state machine over `allTicks` (those <= now)
    * and return the emitted changelog (Extensions 4–7 semantics; see
    * DESIGN.md "Semantics pinned down" for the listing-by-listing
    * derivation). `curAt(p)` is the result snapshot at processing time p.
    *
    * State is indexed by group key, so each step touches only the groups
    * it changes; groups that change at the same instant are visited in
    * [[Diff.sortKey]] order, independent of Spark's row order.
    */
  private def runStream(c: Compiled, allTicks: Seq[Long], now: Long, curAt: Long => Groups): Seq[Change] = {
    val emit        = c.emit
    val out         = Vector.newBuilder[Change]
    val verCounter  = mutable.Map.empty[Seq[Any], Int].withDefaultValue(0)
    // Rows currently materialized, per group (no empty bags).
    val materialized = mutable.Map.empty[Seq[Any], Bag]
    val completed    = mutable.Set.empty[Seq[Any]]          // gated groups already final
    val timers       = mutable.SortedMap.empty[Long, mutable.LinkedHashSet[Seq[Any]]]
    val timerOf      = mutable.Map.empty[Seq[Any], Long]    // group -> its pending timer

    def emitChanges(p: Long, dels: Seq[Seq[Any]], ins: Seq[Seq[Any]]): Unit = {
      dels.foreach { r =>
        val g = groupKey(c, r)
        out += Change(r, undo = true, p, verCounter(g)); verCounter(g) += 1
      }
      ins.foreach { r =>
        val g = groupKey(c, r)
        out += Change(r, undo = false, p, verCounter(g)); verCounter(g) += 1
      }
    }

    def armTimer(g: Seq[Any], at: Long): Unit =
      if (!timerOf.contains(g)) {
        timerOf(g) = at
        timers.getOrElseUpdate(at, mutable.LinkedHashSet.empty) += g
      }

    def cancelTimer(g: Seq[Any]): Unit =
      timerOf.remove(g).foreach(at => timers.get(at).foreach(_ -= g))

    def setMaterialized(g: Seq[Any], bag: Option[Bag]): Unit = bag match {
      case Some(b) => materialized(g) = b
      case None    => materialized -= g
    }

    /** Emit the delta for group `g` against `cur`, at ptime `p`. */
    def materializeGroup(cur: Groups, g: Seq[Any], p: Long): Unit = {
      val (ins, dels) = Diff.bagDiff(materialized.getOrElse(g, Map.empty), cur.getOrElse(g, Map.empty))
      if (ins.nonEmpty || dels.nonEmpty) {
        emitChanges(p, dels, ins)
        setMaterialized(g, cur.get(g))
      }
    }

    /** Groups whose rows in `cur` differ from the materialized ones. */
    def changedGroups(cur: Groups): Seq[Seq[Any]] =
      (materialized.keySet ++ cur.keySet).toSeq
        .filter(g => materialized.get(g) != cur.get(g))
        .sortBy(Diff.sortKey)

    /** Groups of `cur` not yet final whose watermark has passed at p. */
    def newlyComplete(cur: Groups, p: Long): Seq[Seq[Any]] =
      cur.keys.toSeq
        .filter(g => !completed.contains(g) && groupComplete(c, g, p))
        .sortBy(Diff.sortKey)

    def fireTimersUpTo(p: Long): Unit = {
      while (timers.nonEmpty && timers.head._1 <= p) {
        val (fireAt, groups) = timers.head
        timers.remove(fireAt)
        groups.foreach(timerOf.remove)
        val cur = curAt(fireAt)
        groups.foreach { g => if (!completed.contains(g)) materializeGroup(cur, g, fireAt) }
      }
    }

    for (p <- allTicks) {
      if (emit.delayMs.isDefined) fireTimersUpTo(p - 1)
      val cur = curAt(p)

      (emit.afterWatermark, emit.delayMs) match {
        case (false, None) =>
          // Continuous changelog (Extension 4 / Listing 9): every change
          // materializes instantly.
          val changed     = changedGroups(cur)
          def rows(bagOf: Seq[Any] => Option[Bag]): Bag = changed.flatMap(bagOf(_).getOrElse(Map.empty)).toMap
          val (ins, dels) = Diff.bagDiff(rows(materialized.get), rows(cur.get))
          emitChanges(p, dels, ins)
          changed.foreach(g => setMaterialized(g, cur.get(g)))

        case (true, None) =>
          // Completeness-only (Extension 5 / Listing 13): a gated group
          // materializes exactly once, when the watermark passes it.
          newlyComplete(cur, p).foreach { g => materializeGroup(cur, g, p); completed += g }

        case (_, Some(d)) =>
          // Periodic delay (Extensions 6/7 / Listing 14): first change to
          // a group arms a timer at change-time + d; the timer emits the
          // group's then-current delta. With AFTER WATERMARK, completion
          // also fires immediately (the on-time row) and freezes the
          // group (late inputs dropped, Extension 2).
          changedGroups(cur).filterNot(completed.contains).foreach(armTimer(_, p + d))
          if (emit.afterWatermark)
            newlyComplete(cur, p).foreach { g =>
              materializeGroup(cur, g, p)
              completed += g
              cancelTimer(g)
            }
      }
    }

    // Drain timers that fire after the last tick (but within `now`).
    if (emit.delayMs.isDefined) fireTimersUpTo(now)

    out.result()
  }

  private def changelogDf(c: Compiled, changes: Seq[Change]): DataFrame = {
    val schema = StructType(
      c.schema.fields ++ Seq(
        StructField("undo", BooleanType, nullable = false),
        StructField("ptime", TimestampType, nullable = false),
        StructField("ver", IntegerType, nullable = false),
      ))
    val rows = changes.map(ch => Row.fromSeq(ch.row ++ Seq(ch.undo, Times.ts(ch.ptime), ch.ver)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 1).toJavaRDD(), schema)
  }

  /** Fold a changelog back into its table rendering — the declarative
    * stream-to-table conversion the paper notes needs no special
    * operators (Section 3.3.1).
    */
  private def tableFromChangelog(c: Compiled, changes: Seq[Change]): DataFrame = {
    val bag = mutable.Map.empty[Seq[Any], Int].withDefaultValue(0)
    changes.foreach { ch => bag(ch.row) += (if (ch.undo) -1 else 1) }
    val rows = bag.toSeq.flatMap { case (r, n) => Seq.fill(n)(Row.fromSeq(r)) }
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 1).toJavaRDD(), c.schema)
  }
}

object StreamSqlSession {
  private val installed = java.util.Collections.synchronizedSet(
    new java.util.HashSet[String]())

  private def installRule(spark: SparkSession): Unit =
    if (installed.add(System.identityHashCode(spark).toString)) {
      spark.experimental.extraOptimizations =
        spark.experimental.extraOptimizations :+ RequireEventTimeGrouping
    }
}
