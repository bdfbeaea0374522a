package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType}

/** The benchmark's own NEXMark-lite bid generator.
  *
  * Every column is a function of (row index, seed) through `xxhash64`, never
  * of `rand`, whose per-partition seeding makes data depend on the partition
  * count. The shape follows the program's generator: uniform price 1..10000,
  * item `I<n>` over `n / 10` auctions, and arrival time = event time plus an
  * exponential skew.
  */
object Gen {

  /** Spacing of `ticks` coarse ticks over the event time of `n` bids. */
  def tickMs(n: Long, gapMs: Long, ticks: Int): Long = math.ceil(n * gapMs / ticks.toDouble).toLong

  /** Bids `bidtime, price, item, ptime` for row ids `0 until n`.
    *
    * @param gapMs      event-time distance between consecutive bids
    * @param meanSkewMs mean of the exponential arrival skew
    * @param ticks      when positive, arrival times are rounded up to one of
    *                   `ticks` equally spaced instants (the first is one
    *                   spacing in, the last takes every later arrival), so the stream arrives in
    *                   exactly that many coarse ticks, whatever the seed
    * @param partitions partitions of the id range (no effect on the values)
    */
  def bids(spark: SparkSession, n: Long, seed: Long, gapMs: Long, meanSkewMs: Long,
           ticks: Int = 0, partitions: Int = 0): DataFrame = {
    val parts = if (partitions > 0) partitions else spark.sparkContext.defaultParallelism
    def h(salt: Int) = xxhash64(col("id"), lit(seed), lit(salt))
    // Uniform in [0, 1) from the top 53 bits of a hash.
    val u      = shiftrightunsigned(h(3), 11).cast(DoubleType) / math.pow(2, 53)
    val skew   = (lit(meanSkewMs.toDouble) * -log1p(-u)).cast(LongType)
    val arrive = col("id") * gapMs + skew
    val ptime  =
      if (ticks > 0) least(greatest(ceil(arrive / tickMs(n, gapMs, ticks)).cast(LongType), lit(1L)), lit(ticks.toLong)) * tickMs(n, gapMs, ticks)
      else arrive
    spark.range(0, n, 1, parts).select(
      timestamp_millis(col("id") * gapMs)                             as "bidtime",
      (pmod(h(1), lit(10000L)) + 1)                                   as "price",
      concat(lit("I"), pmod(h(2), lit(math.max(1L, n / 10))) + 1)     as "item",
      timestamp_millis(ptime)                                         as "ptime",
    )
  }
}
