#ifndef HPCMIXP_RUNTIME_BUFFER_H_
#define HPCMIXP_RUNTIME_BUFFER_H_

/**
 * @file
 * Runtime-typed array storage — the paper's mp_malloc.
 *
 * A Buffer owns a contiguous array whose element type (bfloat16, half,
 * float, or double — any rung of the active PrecisionLadder) is chosen
 * at *runtime* by the active mixed-precision configuration,
 * exactly like the paper's `mp_malloc(elements, ptr)` which sizes the
 * allocation by the configured type of `ptr`. Typed access is through
 * as<T>(), which panics on a precision mismatch: a region template must
 * only be instantiated with the precisions its configuration dictates.
 *
 * Global allocation counters are kept so tests and benches can confirm
 * the memory-footprint halving that drives the cache effects the paper
 * reports for LavaMD.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/half.h"
#include "runtime/precision.h"

namespace hpcmixp::runtime {

/** A runtime-typed owning array of bf16/half/float/double elements. */
class Buffer {
  public:
    /** An empty buffer (size 0, double precision). */
    Buffer() : Buffer(0, Precision::Float64) {}

    /** Allocate @p elements elements at precision @p p, zero-filled. */
    Buffer(std::size_t elements, Precision p);

    /** A double-precision buffer that takes over @p values' storage. */
    explicit Buffer(std::vector<double> values);

    Buffer(const Buffer&) = default;
    Buffer(Buffer&&) noexcept = default;
    Buffer& operator=(const Buffer&) = default;
    Buffer& operator=(Buffer&&) noexcept = default;

    /** Element count. */
    std::size_t size() const { return size_; }

    /** Active element precision. */
    Precision precision() const { return precision_; }

    /** Allocated bytes. */
    std::size_t bytes() const { return size_ * byteSize(precision_); }

    /**
     * Typed mutable view. Panics when T does not match precision():
     * such a call indicates a bug in a benchmark's region dispatch.
     */
    template <class T>
    std::span<T> as();

    /** Typed read-only view; panics on a precision mismatch. */
    template <class T>
    std::span<const T> as() const;

    /** Read element @p i converted to double (checked). */
    double loadDouble(std::size_t i) const;

    /** Write @p value (converted to the buffer precision) at @p i. */
    void storeDouble(std::size_t i, double value);

    /** Overwrite all elements from doubles, converting as needed. */
    void fillFrom(std::span<const double> values);

    /**
     * Resize/retype to @p elements at @p p, zero-filling every
     * element. Reuses the existing allocation when capacity allows —
     * the workspace arena's no-realloc guarantee rests on this.
     */
    void reshape(std::size_t elements, Precision p);

    /** Become an exact copy of @p src (precision and contents),
     *  reusing the existing allocation when capacity allows. */
    void copyFrom(const Buffer& src);

    /** Copy out all elements widened to double. */
    std::vector<double> toDoubles() const;

    /** Build a buffer at @p p initialized from double data. */
    static Buffer fromDoubles(std::span<const double> values, Precision p);

  private:
    void checkAccess(Precision wanted) const;

    Precision precision_;
    std::size_t size_;
    // Exactly one of these is non-empty, matching precision_.
    std::vector<BFloat16> bf16_;
    std::vector<Half> f16_;
    std::vector<float> f32_;
    std::vector<double> f64_;
};

template <class T>
std::span<T>
Buffer::as()
{
    checkAccess(precisionOf<T>());
    if constexpr (precisionOf<T>() == Precision::BFloat16)
        return std::span<T>(reinterpret_cast<T*>(bf16_.data()), size_);
    else if constexpr (precisionOf<T>() == Precision::Float16)
        return std::span<T>(reinterpret_cast<T*>(f16_.data()), size_);
    else if constexpr (precisionOf<T>() == Precision::Float32)
        return std::span<T>(reinterpret_cast<T*>(f32_.data()), size_);
    else
        return std::span<T>(reinterpret_cast<T*>(f64_.data()), size_);
}

template <class T>
std::span<const T>
Buffer::as() const
{
    checkAccess(precisionOf<T>());
    if constexpr (precisionOf<T>() == Precision::BFloat16)
        return std::span<const T>(
            reinterpret_cast<const T*>(bf16_.data()), size_);
    else if constexpr (precisionOf<T>() == Precision::Float16)
        return std::span<const T>(
            reinterpret_cast<const T*>(f16_.data()), size_);
    else if constexpr (precisionOf<T>() == Precision::Float32)
        return std::span<const T>(
            reinterpret_cast<const T*>(f32_.data()), size_);
    else
        return std::span<const T>(
            reinterpret_cast<const T*>(f64_.data()), size_);
}

} // namespace hpcmixp::runtime

#endif // HPCMIXP_RUNTIME_BUFFER_H_
