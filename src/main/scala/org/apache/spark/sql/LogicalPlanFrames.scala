package org.apache.spark.sql

import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan

/** Runs a hand-built logical plan as a DataFrame. Spark 4 keeps
  * `classic.Dataset.ofRows` `private[sql]`; this object, placed in Spark's
  * package, is the one place that reaches it.
  */
object LogicalPlanFrames {
  def ofRows(spark: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], plan)
}
