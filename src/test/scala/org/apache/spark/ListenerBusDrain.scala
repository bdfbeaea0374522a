package org.apache.spark

/** Spark delivers listener events on its own thread. Counting the jobs of a
  * call needs every event of that call delivered first, and the only way to
  * wait for that is package-private to `org.apache.spark`.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
