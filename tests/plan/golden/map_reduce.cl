float helper__m0(float v) { return v * 0.5f; }
float halve__m0(float x, float a) { return helper__m0(x) + a; }
float helper__m1(float v) { return v * v; }
float weigh__m1(float x, float w) { return helper__m1(x) * w; }
float SCL_PREMAP(float SCL_X, float SCL_M0_0, float SCL_M1_0) {
    return weigh__m1((float)(halve__m0(SCL_X, SCL_M0_0)), SCL_M1_0);
}

float total(float x, float y) { return x + y; }

__kernel void skelcl_reduce_fused(__global const float* SCL_IN,
                                  __global float* SCL_OUT,
                                  const unsigned int SCL_N,
                                  const unsigned int SCL_OFFSET, const float SCL_EXTRA0, const float SCL_EXTRA1) {
    __local float SCL_SCRATCH[256];
    size_t SCL_LID = get_local_id(0);
    float SCL_ACC = 0;
    for (size_t SCL_I = get_global_id(0); SCL_I < SCL_N; SCL_I += get_global_size(0)) {
        SCL_ACC = total(SCL_ACC, (float)(SCL_PREMAP(SCL_IN[SCL_I + SCL_OFFSET], SCL_EXTRA0, SCL_EXTRA1)));
    }
    SCL_SCRATCH[SCL_LID] = SCL_ACC;
    barrier(CLK_LOCAL_MEM_FENCE);
    for (unsigned int SCL_S = 256 / 2; SCL_S > 0; SCL_S = SCL_S / 2) {
        if (SCL_LID < SCL_S) {
            SCL_SCRATCH[SCL_LID] = total(SCL_SCRATCH[SCL_LID], SCL_SCRATCH[SCL_LID + SCL_S]);
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (SCL_LID == 0) {
        SCL_OUT[get_group_id(0)] = SCL_SCRATCH[0];
    }
}
