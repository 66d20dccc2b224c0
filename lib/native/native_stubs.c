/* Loading compiled nests and calling them, for native.ml. */

#define CAML_NAME_SPACE
#include <dlfcn.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/bigarray.h>

typedef void (*lf_nest_fn)(double *const *, const long *, const long *);

value lf_native_dlopen(value path)
{
  void *h = dlopen(String_val(path), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) caml_failwith(dlerror());
  return caml_copy_nativeint((intnat) h);
}

value lf_native_dlsym(value handle, value name)
{
  void *f = dlsym((void *) Nativeint_val(handle), String_val(name));
  if (f == NULL) caml_failwith("lf_native: nest function not found");
  return caml_copy_nativeint((intnat) f);
}

/* Run nest function [fn] over one box, [arrays] being the program's
   Bigarrays and [ranges] the box's (lo, hi) per level, with the
   runtime lock released: the nest touches only Bigarray data, outside
   the OCaml heap, and the pointers and bounds copied here. */
value lf_native_call(value fn, value arrays, value ranges)
{
  CAMLparam3(fn, arrays, ranges);
  mlsize_t n = Wosize_val(arrays), depth = Wosize_val(ranges);
  double *data[n + 1];
  long lo[depth + 1], hi[depth + 1];
  for (mlsize_t i = 0; i < n; i++) data[i] = Caml_ba_data_val(Field(arrays, i));
  for (mlsize_t l = 0; l < depth; l++) {
    lo[l] = Long_val(Field(Field(ranges, l), 0));
    hi[l] = Long_val(Field(Field(ranges, l), 1));
  }
  lf_nest_fn f = (lf_nest_fn) Nativeint_val(fn);
  caml_enter_blocking_section();
  f(data, lo, hi);
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}
